package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The load generator is open-loop: requests fall due on a seeded Poisson
// schedule whatever the system's state, at most conns are in flight (one
// per client connection, conns = nproc), and every request is timed from
// when it fell due, so a stall also counts against the requests queued
// behind it. How late the generator itself dispatched is kept apart as
// lateness: it measures the generator, not the program.

// outcome is one request of a phase.
type outcome struct {
	due     time.Duration // offset from the phase start
	latency float64       // ms from due to answer
	status  int
	body    []byte
	err     error
}

// ok reports whether the request got a 200 answer.
func (o outcome) ok() bool { return o.err == nil && o.status == 200 }

// run is one finished open-loop phase.
type run struct {
	out      []outcome // in schedule order
	lateness []float64 // ms from due to dispatch, per request
	wall     time.Duration
	steal    []float64 // the host's stolen CPU share in each slice
}

// poisson draws arrival offsets at rate per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// sender performs request i of a phase.
type sender func(ctx context.Context, i int) (status int, body []byte, err error)

// openLoop sends request i at due[i] over conns connections.
func openLoop(ctx context.Context, due []time.Duration, conns int, send sender) run {
	r := run{out: make([]outcome, len(due)), lateness: make([]float64, len(due))}
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st, body, err := send(ctx, i)
				r.out[i] = outcome{due: due[i], latency: ms(time.Since(start) - due[i]), status: st, body: body, err: err}
			}
		}()
	}
	for i, d := range due {
		if w := d - time.Since(start); w > 0 {
			time.Sleep(w)
		}
		r.lateness[i] = ms(time.Since(start) - d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// latencies returns the phase's per-request latencies in ms. A failed
// request counts as missing every latency limit, so it enters as +Inf.
func (r run) latencies() []float64 {
	out := make([]float64, len(r.out))
	for i, o := range r.out {
		out[i] = o.latency
		if !o.ok() {
			out[i] = inf
		}
	}
	return out
}

// dues returns when each request of the phase fell due.
func (r run) dues() []time.Duration {
	out := make([]time.Duration, len(r.out))
	for i, o := range r.out {
		out[i] = o.due
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
