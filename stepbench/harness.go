package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"eta2"
	"eta2/internal/httpapi"
)

// fsyncPolicy is the WAL flush policy of every server the benchmark
// opens: every acknowledged write is durable.
const fsyncPolicy = eta2.FsyncAlways

// compactAt is the WAL size that triggers background compaction: 3 MiB,
// below the server default of 8 MiB, so that a big-state round of four
// steps (about 1.4 MB of WAL each) runs one background cycle while the
// other workloads (under 1 MB a round) run none.
const compactAt = 3 << 20

// serverOptions is the configuration of every server of a workload:
// background compaction once the WAL passes compact bytes, none when
// compact is negative.
func serverOptions(dir string, emb eta2.Embedder, compact int64) []eta2.Option {
	opts := []eta2.Option{eta2.WithDurability(dir, eta2.DurabilityPolicy{Fsync: fsyncPolicy, CompactAt: compact})}
	if emb != nil {
		opts = append(opts, eta2.WithEmbedder(emb))
	}
	return opts
}

// template is the starting state every round opens a copy of.
type template struct {
	dir string
	emb eta2.Embedder
	// readable lists main tasks with a published truth: the probe's
	// read targets.
	readable []eta2.TaskID
}

// buildTemplate builds the starting state in dir through the in-process
// API: users, loop steps, bulk steps and probe tasks (see spec). The
// embedder is trained here with the fixed seeds the server binary uses,
// so every run clusters with the same model. With traced set, a shadow
// mirrors every operation so the traced run can replay later steps from
// the same state.
func buildTemplate(w *world, dir string, traced bool) (*template, *shadow, error) {
	tp := &template{dir: dir}
	if w.described {
		emb, err := eta2.TrainEmbedder(eta2.BuiltinCorpus(1), 2)
		if err != nil {
			return nil, nil, fmt.Errorf("train embedder: %w", err)
		}
		tp.emb = emb
	}
	var sh *shadow
	if traced {
		var err error
		if sh, err = newShadow(tp.emb); err != nil {
			return nil, nil, err
		}
	}
	srv, err := eta2.NewServer(serverOptions(dir, tp.emb, compactAt)...)
	if err != nil {
		return nil, nil, fmt.Errorf("open template server: %w", err)
	}
	if err := buildState(w, srv, sh, tp); err != nil {
		srv.Close()
		return nil, nil, err
	}
	// Every round opens this state from a snapshot with an empty WAL,
	// whenever the set-up's background compactions ran.
	if err := quiesce(srv, compactAt); err != nil {
		srv.Close()
		return nil, nil, err
	}
	if err := srv.Compact(); err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("compact template: %w", err)
	}
	if err := srv.Close(); err != nil {
		return nil, nil, fmt.Errorf("close template server: %w", err)
	}
	return tp, sh, nil
}

func buildState(w *world, srv *eta2.Server, sh *shadow, tp *template) error {
	users := w.users()
	if err := srv.AddUsers(users...); err != nil {
		return fmt.Errorf("add users: %w", err)
	}
	sh.addUsers(users)
	steps := w.loopSteps + w.bulkSteps
	if steps == 0 {
		return errors.New("a workload needs at least one set-up step")
	}
	next := 0 // next catalogue index
	for step := 0; step < steps; step++ {
		loop := step < w.loopSteps
		n, batch := w.bulkTasks, 5000
		if loop {
			n, batch = w.tasksPerStep, w.createBatch
		}
		for lo := next; lo < next+n; lo += batch {
			specs := make([]eta2.TaskSpec, 0, batch)
			for i := lo; i < min(lo+batch, next+n); i++ {
				specs = append(specs, w.specFor(i))
			}
			if _, err := srv.CreateTasks(specs...); err != nil {
				return fmt.Errorf("create set-up tasks: %w", err)
			}
			if _, err := sh.createTasks(specs); err != nil {
				return err
			}
		}
		var obs []eta2.Observation
		if loop {
			alloc, err := srv.AllocateMaxQuality()
			if err != nil {
				return fmt.Errorf("allocate set-up step: %w", err)
			}
			at, err := sh.allocate()
			if err != nil {
				return err
			}
			if sh != nil && !equalPairs(at.pairs, alloc.Pairs) {
				return fmt.Errorf("set-up step %d: shadow allocation differs from the server's", step)
			}
			obs = w.observe(alloc.Pairs, w.rng(phaseSetupPairs, step))
		} else {
			ids := make([]eta2.TaskID, 0, n)
			for i := next; i < next+n; i++ {
				ids = append(ids, w.taskID(i))
			}
			obs = w.readings(ids, n*w.bulkReadings, w.rng(phaseSetupBulk, step))
		}
		next += n
		if step == steps-1 {
			// The probe tasks join the last set-up step after its
			// allocation, so no allocation ever sees them pending.
			if _, err := srv.CreateTasks(w.probeSpecs()...); err != nil {
				return fmt.Errorf("create probe tasks: %w", err)
			}
			if _, err := sh.createTasks(w.probeSpecs()); err != nil {
				return err
			}
			for k := 0; k < w.probeTasks; k++ {
				obs = append(obs, eta2.Observation{Task: w.probeTask(k), User: w.probeUser, Value: 1})
			}
		}
		for lo := 0; lo < len(obs); lo += 50000 {
			if err := srv.SubmitObservations(obs[lo:min(lo+50000, len(obs))]...); err != nil {
				return fmt.Errorf("submit set-up observations: %w", err)
			}
		}
		rep, err := srv.CloseTimeStep()
		if err != nil {
			return fmt.Errorf("close set-up step: %w", err)
		}
		if _, err := sh.closeStep(obs); err != nil {
			return err
		}
		for _, e := range rep.Estimates {
			if !w.isProbeTask(e.Task) {
				tp.readable = append(tp.readable, e.Task)
			}
		}
	}
	return nil
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// httpServer serves one eta2.Server on a loopback listener.
type httpServer struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func serveHTTP(srv *eta2.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &httpServer{hs: &http.Server{Handler: httpapi.New(srv)}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return h, nil
}

// stop shuts the listener down and waits for the serve loop to end.
func (h *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx)
	<-h.done
}

// apiConn is one client of the server holding at most one connection:
// the API client and the HTTP client under it.
type apiConn struct {
	*httpapi.Client
	http *http.Client
	tr   *http.Transport
	base string
}

func dial(base string, wrap func(http.RoundTripper) http.RoundTripper) *apiConn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	hc := &http.Client{Transport: rt}
	return &apiConn{Client: httpapi.NewClient(base, hc), http: hc, tr: tr, base: base}
}

func (c *apiConn) close() { c.tr.CloseIdleConnections() }

// postJSON posts a body the caller encoded beforehand, so the request's
// latency holds no client-side encoding.
func (c *apiConn) postJSON(ctx context.Context, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // drained so the connection is reused
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// quiesce waits until no compaction is owed: with no writes arriving,
// an in-flight cycle keeps the log over the threshold until it has
// truncated it, which is its last file operation.
func quiesce(srv *eta2.Server, compactAt int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.DurabilityStats()
		if st.LastLSN <= st.SnapshotLSN || st.WALBytes < compactAt {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("background compaction did not finish within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// equalPairs compares two allocations as sets.
func equalPairs(a, b []eta2.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedPairs(a), sortedPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedPairs(p []eta2.Pair) []eta2.Pair {
	out := append([]eta2.Pair(nil), p...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Task < out[j].Task
	})
	return out
}
