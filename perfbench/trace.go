package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records spans from the benchmark's own wrappers around the
// program's public boundaries: the api.Client call, the http.Handler of
// the router and of each server, and the engine calls the workloads make.
// Spans stay in memory and are written out when the run ends. Recording
// is switched per phase, so one run can time the same phase traced and
// untraced; with recording off every wrapper is a plain pass-through.

// idHeader carries the client's request id to the outermost handler.
const idHeader = "X-Bench-Request"

// span is one timed call at a layer boundary. Spans of one request share
// an ID; holder spans, which the router's own requests cause, carry no ID
// and are matched to their router span by Key and by time.
type span struct {
	Layer string `json:"layer"`
	ID    uint64 `json:"id,omitempty"`
	Key   uint64 `json:"key,omitempty"` // FNV-1a of the /search body
	Start int64  `json:"start_ns"`      // since the tracer's base time
	End   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

type tracer struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// set switches recording; a nil tracer ignores it.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// record keeps a span when recording is on.
func (t *tracer) record(layer string, id, key uint64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Layer: layer, ID: id, Key: key, Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps h so every /search it serves is recorded as a layer span.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/search" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id, _ := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
		h.ServeHTTP(w, r)
		t.record(layer, id, bodyKey(body), start, time.Now())
	})
}

func bodyKey(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum64()
}

type idKey struct{}

// withID tags ctx with a request id for idTransport to send.
func withID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, idKey{}, id)
}

// idTransport stamps the request id from the request's context on the
// outgoing request while the tracer records.
type idTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (it idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(idKey{}).(uint64)
	if !ok || !it.t.on.Load() {
		return it.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(idHeader, strconv.FormatUint(id, 10))
	return it.base.RoundTrip(r)
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMS returns the durations of the spans of one layer, in ms.
func layerMS(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s.ms())
		}
	}
	return out
}

// wireTimes pairs each client span with the outermost handler span of the
// same request and returns, per request, the client time minus the
// handler time: what the wire, the HTTP stacks and the client cost.
func wireTimes(spans []span, outer string) []float64 {
	handler := make(map[uint64]span)
	for _, s := range spans {
		if s.Layer == outer && s.ID != 0 {
			handler[s.ID] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Layer != "client" {
			continue
		}
		if h, ok := handler[s.ID]; ok {
			out = append(out, s.ms()-h.ms())
		}
	}
	return out
}

// fanout matches every router span to the holder spans it caused — same
// body, inside the router span's interval — and returns, per request that
// reached all sets holders, the router time minus the slowest holder and
// the slowest minus the fastest holder.
func fanout(spans []span, sets int) (self, skew []float64) {
	byKey := make(map[uint64][]span)
	for _, s := range spans {
		if s.Layer == "server" {
			byKey[s.Key] = append(byKey[s.Key], s)
		}
	}
	for _, r := range spans {
		if r.Layer != "router" {
			continue
		}
		var slow, fast float64
		n := 0
		for _, h := range byKey[r.Key] {
			if h.Start < r.Start || h.End > r.End {
				continue
			}
			d := h.ms()
			if n == 0 || d > slow {
				slow = d
			}
			if n == 0 || d < fast {
				fast = d
			}
			n++
		}
		if n == sets {
			self = append(self, r.ms()-slow)
			skew = append(skew, slow-fast)
		}
	}
	return self, skew
}
