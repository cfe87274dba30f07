// Command stepbench measures the paper's per-step loop — identify domains,
// allocate, ingest, estimate and update (Fig. 1) — end to end over HTTP.
// It self-hosts a durable eta2.Server (fsync always) behind httpapi on a
// loopback listener and drives whole steps against it while an open-loop
// probe measures write and read latency. It prints one JSON object as the
// last line of its output.
//
//	stepbench --workload paper-loop --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same workload and seed once more with the per-layer
// attribution of trace.go and prints the per-layer metrics instead.
// --repeat N runs the workload N times with seeds seed..seed+N-1, each in
// its own process, and prints the spread of every end-to-end metric. See
// README.md for the workloads, the checks and reference figures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eta2/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	tiny     bool
	work     string
	src      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("stepbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fl.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in whole rounds of steps")
	fl.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fl.IntVar(&o.repeat, "repeat", 0, "run the workload N times with seeds seed..seed+N-1 and print each end-to-end metric's spread")
	fl.StringVar(&o.work, "work", ".bench_build", "directory for the run's data directories")
	fl.StringVar(&o.src, "src", ".", "root of the eta2 source tree, for the report's source digest")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs(o.tiny)[o.workload]
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "stepbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if o.repeat > 0 {
		return repeat(o, stdout, stderr)
	}
	// The HTTP layer logs every traced request; the benchmark's output is
	// its report, so those lines go nowhere.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	res, err := runOnce(o, sp, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "stepbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "stepbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOnce runs one workload once and returns its result. It prints a
// report line (host fingerprint, per-operation counts) before it.
func runOnce(o options, sp spec, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	// A run that hangs must still end, and within the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	w := newWorld(sp, o.seed)
	r := newRunner(ctx, w, o.seconds, o.trace == 1, work, stderr)
	start := time.Now()
	cpu0 := readCPU()
	wal0 := scrape()
	if err := r.setup(); err != nil {
		return result{}, err
	}
	err = r.measure()
	if r.tr != nil {
		r.tr.close()
	}
	if err != nil {
		return result{}, err
	}
	r.finalChecks()
	attempted, failed := r.totals()
	res := result{Correct: len(r.failures) == 0, Attempted: attempted, Failed: failed}
	if o.trace == 1 {
		res.Metrics = r.tr.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // the layer did no work of this kind in this workload
			res.Metrics[k] = m
		}
	}
	writeDue, readDue := r.pooled()
	maxLate := 0.0
	for _, ss := range r.steps {
		maxLate = max(maxLate, ss.probe.maxLateMs)
	}
	report := map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace, "tiny": o.tiny,
		"host":         fingerprint(o.src),
		"ops":          r.opReport(),
		"rounds":       r.rounds,
		"steps":        len(r.steps),
		"probe_writes": len(writeDue), "probe_reads": len(readDue),
		"probe_max_late_ms": maxLate,
		"content_digest":    r.contentDigest(),
		"wall_s":            time.Since(start).Seconds(),
		"steal_share":       readCPU().stealShare(cpu0),
		"wal_fsync_ms_mean": 1000 * scrape().minus(wal0).ratio("eta2_wal_fsync_duration_seconds_sum", "eta2_wal_fsync_duration_seconds_count"),
		"failures":          r.failures,
		"calibration_ms":    stats.Median(r.cal),
	}
	if r.tr != nil {
		report["unresolved"] = r.tr.unresolved
	} else {
		report["timings"] = r.wallReport()
	}
	line, err := json.Marshal(report)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "report %s\n", line)
	return res, nil
}

func (r *runner) opReport() map[string][2]int {
	out := make(map[string][2]int, len(r.ops))
	for k, c := range r.ops {
		out[k] = [2]int{c.attempted, c.failed}
	}
	return out
}

// contentDigest hashes round 0's pairs and observations, which every
// later round repeats: equal across runs of one seed, whatever the run
// length.
func (r *runner) contentDigest() string {
	h := sha256.New()
	for _, d := range r.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprint identifies the host and the code a report came from.
func fingerprint(src string) map[string]any {
	fp := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"fsync":      string(fsyncPolicy),
		"commit":     "unknown",
		"source":     sourceDigest(src),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp["commit"] = s.Value
			}
		}
	}
	return fp
}

// sourceDigest hashes the program's Go sources and module file, which
// names the code measured even where no version control is at hand.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "stepbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f) // f lies under root
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// repeat runs the workload o.repeat times, each in a child process of
// this binary, and prints per end-to-end metric the median, quartiles,
// min, max and the quartile spread as a share of the median.
func repeat(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "stepbench: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", strconv.Itoa(o.trace),
			"--work", o.work, "--src", o.src}
		res, err := runChild(exe, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "stepbench: seed %d: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "stepbench: seed %d: checks failed\n", seed)
			return 1
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stderr, "stepbench: seed %d done\n", seed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-18s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, k := range names {
		v := values[k]
		q1, q2, q3 := quartiles(v)
		lo, hi := stats.Quantile(v, 0), stats.Quantile(v, 1)
		fmt.Fprintf(stdout, "%-18s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f\n", k, units[k], q2, q1, q3, lo, hi, (q3-q1)/q2)
	}
	return 0
}

func runChild(exe string, args []string, stderr io.Writer) (result, error) {
	var res result
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		return res, errors.New("no output")
	}
	for _, l := range lines {
		fmt.Fprintln(stderr, l) // the child's report and result lines
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parse result: %w", err)
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTimes is the machine's aggregate CPU time split from /proc/stat.
type cpuTimes struct{ total, steal float64 }

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	var c cpuTimes
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			c.total += x
		}
		if i == 7 {
			c.steal = x
		}
	}
	return c
}

// stealShare is the share of the machine's CPU time since base that the
// hypervisor gave to others: noise no run can control, recorded so
// reports from noisy periods can be told apart.
func (c cpuTimes) stealShare(base cpuTimes) float64 {
	if c.total <= base.total {
		return 0
	}
	return (c.steal - base.steal) / (c.total - base.total)
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. The benchmark times the program in it rather than in
// wall time. On a shared host the hypervisor takes the vCPUs away for
// stretches (steal) and other guests load the disk, and both stretch wall
// times by tens of percent for whole runs; neither counts here. A Linux
// guest that accounts steal (CONFIG_PARAVIRT_TIME_ACCOUNTING) leaves it
// out of a task's CPU time, and time a thread waits on an fsync or a
// socket is not CPU time. The process holds the server, the operator
// client and the probe, so a request's CPU time is the whole cost of
// serving it, client and probe work in the same interval included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
