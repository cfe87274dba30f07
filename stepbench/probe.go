package main

import (
	"context"
	"time"

	"eta2"
	"eta2/internal/httpapi"
)

// probeEvery is the probe's interval: one read and one write each time.
// It is a workload parameter, not a rate the paper gives: at 200 reads
// and 200 writes a second the probe adds a few percent to the server's
// load while a run still collects the samples its p99s need.
const probeEvery = 5 * time.Millisecond

// probeSamples are the probe's latencies in ms, timed from when each
// request was due, which counts the wait a stall imposes on the requests
// behind it.
type probeSamples struct {
	writeDue, readDue []float64
	maxLateMs         float64 // how late the generator ran at worst
}

// probeCounts are the probe's operations over a whole run.
type probeCounts struct{ writes, reads opCount }

// probe is an open-loop client on its own connection. Every probeEvery it
// sends a one-observation write from the probe user to a probe task and
// then a truth read of a main task, as a device reports a reading and
// then fetches the estimate, whatever happened to the requests before.
// Its writes cannot change which observations the main tasks are
// estimated from: they go to probe tasks, in a domain no main task uses,
// from a user that allocation never picks. On its one connection the
// read waits for the write before it: the read's latency from its due
// time is the write's plus its own.
//
// A request that stalls past later slots does not make the probe send
// those slots in a burst once it returns, which would load the server
// with the probe's own backlog exactly when the step resumes. Each slot
// that fell due during the stall is recorded instead with the latency it
// would have seen had it been sent on time and waited behind the same
// stall, from its due time to the stalled request's completion (the
// usual correction for coordinated omission), and the probe resumes at
// the next slot due after the completion.
type probe struct {
	c       *httpapi.Client
	w       *world
	targets []eta2.TaskID
	out     *probeSamples
	ops     *probeCounts
	ctx     context.Context

	k    int
	stop chan struct{}
	done chan struct{}
}

// start launches the probe; end stops it and waits for it to exit.
func (p *probe) start() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

func (p *probe) end() {
	close(p.stop)
	<-p.done
}

func (p *probe) loop() {
	defer close(p.done)
	begin := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; {
		due := begin.Add(time.Duration(i) * probeEvery)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-p.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-p.stop:
				return
			default:
			}
		}
		p.out.maxLateMs = max(p.out.maxLateMs, millis(time.Since(due)))
		p.send(true, due)
		end := p.send(false, due)
		for i++; begin.Add(time.Duration(i) * probeEvery).Before(end); i++ {
			skipped := millis(end.Sub(begin.Add(time.Duration(i) * probeEvery)))
			p.record(false, skipped)
			p.record(true, skipped)
		}
	}
}

// send issues one write or read that fell due at due, records its
// latency, and returns when it completed.
func (p *probe) send(write bool, due time.Time) time.Time {
	var err error
	count := &p.ops.reads
	if write {
		count = &p.ops.writes
		body := []httpapi.ObservationJSON{{Task: int(p.w.probeTask(p.k)), User: int(p.w.probeUser), Value: float64(p.k % 7)}}
		err = p.c.SubmitObservations(p.ctx, body)
	} else {
		_, err = p.c.Truth(p.ctx, int(p.targets[p.k%len(p.targets)]))
		p.k++
	}
	end := time.Now()
	count.attempted++
	if err != nil {
		count.failed++ // a failed request has no latency
	} else {
		p.record(write, millis(end.Sub(due)))
	}
	return end
}

// record adds one latency from the due time.
func (p *probe) record(write bool, dueMs float64) {
	if write {
		p.out.writeDue = append(p.out.writeDue, dueMs)
	} else {
		p.out.readDue = append(p.out.readDue, dueMs)
	}
}
