package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/mass"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// open-batch is the paper's search, as lbe-search -db runs it: a
// generated proteome is digested, LBE-grouped, partitioned cyclically into
// 16 shards and searched with an open precursor tolerance, the spectra
// streaming through a Session in 256-spectrum batches. No HTTP, JSON,
// coalescer, cache or router is on the path.
const (
	batchShards = 16
	batchSize   = 256
	batchPool   = 2048 // spectra streamed round and round; a multiple of batchSize
	// quiet is a closed loop of lone Session.Search calls of
	// batchQuietSpectra spectra each, zipf-scatter's request size (a small
	// request arriving alone); busy is the saturated stream, where a
	// request is one 256-spectrum batch. A lone single-spectrum search
	// was mostly the hand-offs between the workers of 16 shards, and its
	// latency moved from run to run with the host's CPU steal by more than
	// the bounds, while the saturated rate held within a tenth.
	batchQuietSpectra = 8 // divides batchPool
	batchQuietTail    = 0.75
	batchBusyTail     = 0.75
	batchQuiet        = 0.4 // share of the measured seconds
)

func openBatch(b *bench) error {
	ctx := context.Background()
	db, err := makeDatabase()
	if err != nil {
		return err
	}
	pool, err := spectra(db.peptides, b.seed+1, batchPool, 1)
	if err != nil {
		return err
	}
	path := filepath.Join(b.work, "proteome.fasta")
	if err := os.WriteFile(path, db.fasta, 0o644); err != nil {
		return err
	}
	cfg := sessionConfig(batchShards, mass.Open())
	b.shape = shape{Shards: batchShards, Tolerance: "open", IndexRows: db.rows, Spectra: batchPool, SpectraPerRequest: batchSize,
		Load: fmt.Sprintf("closed loop: lone %d-spectrum Session.Search (quiet), saturated Session.Stream (busy)", batchQuietSpectra)}

	if b.tracing() {
		if err := b.traceBuild(db, cfg); err != nil {
			return err
		}
	}

	// Setup: FASTA bytes on disk to a ready Session, as lbe-search -db
	// pays it on every run.
	base := heapInUse()
	var sess *engine.Session
	var peptides []string
	var times []float64
	for i := 0; i < setups; i++ {
		if sess != nil {
			sess.Close()
			sess = nil
			runtime.GC()
		}
		start := time.Now()
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if peptides, err = digestFasta(text); err != nil {
			return err
		}
		if sess, err = engine.NewSession(peptides, cfg); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer sess.Close()
	b.e2e["setup_s"] = median(times)
	b.note("setup: %s s", formatAll(times))
	b.e2e["heap_mb"] = (heapInUse() - base) / (1 << 20)
	b.layers["engine.index_mb"] = float64(sess.IndexBytes()) / (1 << 20)

	// The oracle: every pool spectrum's answer from one direct Search.
	res, err := sess.Search(ctx, pool)
	if err != nil {
		return err
	}
	want := make([][]byte, len(pool))
	for i := range pool {
		want[i] = render(pool[i:i+1], res.PSMs[i:i+1], peptides)
	}

	var traced counters
	var tracedWall float64
	measure := func(on bool, f func() error) error {
		b.tr.set(on)
		before := snapshot([]*engine.Session{sess}, nil, nil)
		start := time.Now()
		err := f()
		if on {
			tracedWall += time.Since(start).Seconds()
			traced.add(snapshot([]*engine.Session{sess}, nil, nil).since(before))
		}
		b.tr.set(false)
		return err
	}

	// Untraced: rounds of quiet lone searches and busy streaming. Traced:
	// quiet traced, then busy untraced and traced in alternating quarters,
	// whose gap is the tracing overhead.
	type segment struct {
		quiet, busy time.Duration
		traced      bool
	}
	var segments []segment
	if b.tracing() {
		segments = []segment{{quiet: b.dur(batchQuiet), traced: true}}
		for _, on := range []bool{false, true, false, true} {
			segments = append(segments, segment{busy: b.dur((1 - batchQuiet) / 4), traced: on})
		}
	} else {
		for i := 0; i < rounds; i++ {
			segments = append(segments, segment{quiet: b.dur(batchQuiet / rounds), busy: b.dur((1 - batchQuiet) / rounds)})
		}
	}
	var quiet []sampled
	var lat []float64
	var n [2]int
	var wall [2]float64
	for _, sg := range segments {
		if sg.quiet > 0 {
			if err := measure(sg.traced, func() error {
				meter := meterSteal(sg.quiet)
				q, at, err := b.loneSearches(ctx, sess, pool, want, peptides, sg.quiet)
				quiet = append(quiet, sampled{q, at, meter()})
				return err
			}); err != nil {
				return err
			}
		}
		if sg.busy > 0 {
			if err := measure(sg.traced, func() error {
				st, err := b.stream(ctx, sess, pool, want, peptides, sg.busy)
				k := 0
				if sg.traced {
					k = 1
				} else {
					lat = append(lat, st.lat...)
				}
				n[k] += st.spectra
				wall[k] += st.wall
				return err
			}); err != nil {
				return err
			}
		}
	}
	b.latency("quiet", calm(quiet, batchQuietTail))
	b.latency("busy", summarize(lat, batchBusyTail))
	b.e2e["spectra_per_s"] = float64(n[0]) / wall[0]
	b.e2e["max_rate_rps"] = b.e2e["spectra_per_s"] / batchSize
	b.note("busy: %d spectra in %.2f s of saturated streaming (untraced)", n[0], wall[0])

	if b.tracing() {
		spans := b.tr.all()
		b.layers["engine.batch_ms"] = stats.Mean(layerMS(spans, "engine.stream"))
		b.layers["trace.overhead_pct"] = 100 * (ratio(float64(n[0])/wall[0], float64(n[1])/wall[1]) - 1)
		engineLayers(b.layers, traced, tracedWall)
		bypassed(b.layers)
	}
	return nil
}

// loneSearches calls Session.Search with batchQuietSpectra spectra at a
// time for d, each call starting when the previous returned. It returns
// each call's latency and when, from the start, it began.
func (b *bench) loneSearches(ctx context.Context, sess *engine.Session, pool []spectrum.Experimental, want [][]byte, peptides []string, d time.Duration) ([]float64, []time.Duration, error) {
	var lat []float64
	var at []time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < d; i = (i + batchQuietSpectra) % len(pool) {
		qs := pool[i : i+batchQuietSpectra]
		t0 := time.Now()
		res, err := sess.Search(ctx, qs)
		t1 := time.Now()
		b.tr.record("engine.search", 0, 0, t0, t1)
		b.attempted++
		at = append(at, t0.Sub(start))
		if err != nil {
			b.failed++
			lat = append(lat, inf)
			continue
		}
		lat = append(lat, ms(t1.Sub(t0)))
		for j := range qs {
			if !bytes.Equal(render(qs[j:j+1], res.PSMs[j:j+1], peptides), want[i+j]) {
				b.failed++
				b.wrong++
				break
			}
		}
	}
	return lat, at, nil
}

// streamed is one saturated streaming segment.
type streamed struct {
	lat     []float64 // ms from offering a batch to its merged result
	spectra int
	wall    float64 // s from the first push to the last result
}

// stream pushes the pool through one Stream, 256 spectra per batch, for
// d and drains it. Every answer is checked against the oracle afterwards.
func (b *bench) stream(ctx context.Context, sess *engine.Session, pool []spectrum.Experimental, want [][]byte, peptides []string, d time.Duration) (streamed, error) {
	st, err := sess.Stream(ctx)
	if err != nil {
		return streamed{}, err
	}
	type offer struct {
		at  time.Time
		off int
	}
	offers := make(chan offer, 1<<16)
	start := time.Now()
	pushErr := make(chan error, 1)
	go func() {
		var err error
		for off := 0; time.Since(start) < d; off = (off + batchSize) % len(pool) {
			offers <- offer{time.Now(), off}
			if err = st.Push(pool[off : off+batchSize]); err != nil {
				break
			}
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		pushErr <- err
	}()

	var out streamed
	type answer struct {
		off  int
		psms [][]engine.PSM
	}
	var answers []answer
	var last time.Time
	for br := range st.Results() {
		o := <-offers
		last = time.Now()
		b.tr.record("engine.stream", 0, 0, o.at, last)
		out.lat = append(out.lat, ms(last.Sub(o.at)))
		out.spectra += len(br.PSMs)
		// Copy the answers: each PSM slice shares its backing array with
		// the batch's whole candidate list, which would otherwise stay live.
		kept := make([][]engine.PSM, len(br.PSMs))
		for i, p := range br.PSMs {
			kept[i] = append([]engine.PSM(nil), p...)
		}
		answers = append(answers, answer{o.off, kept})
	}
	if err := <-pushErr; err != nil {
		return out, err
	}
	if err := st.Err(); err != nil {
		return out, err
	}
	out.wall = last.Sub(start).Seconds()
	for _, a := range answers {
		b.attempted++
		for j, psms := range a.psms {
			q := a.off + j
			if !bytes.Equal(render(pool[q:q+1], [][]engine.PSM{psms}, peptides), want[q]) {
				b.failed++
				b.wrong++
				break
			}
		}
	}
	return out, nil
}

// traceBuild times the setup's stages through their own entry points —
// digest, core.Group, core.PartitionClustered, slm.Build per shard — and
// then engine.NewSession as a whole, which runs the same stages again.
func (b *bench) traceBuild(db database, cfg engine.SessionConfig) error {
	b.tr.set(true)
	defer b.tr.set(false)
	var peptides []string
	var g core.Grouping
	var p core.Partition
	steps := []struct {
		layer, metric string
		f             func() error
	}{
		{"digest", "digest.s", func() (err error) { peptides, err = digestFasta(db.fasta); return err }},
		{"core.group", "core.group_s", func() (err error) { g, err = core.Group(peptides, cfg.Group); return err }},
		{"core.partition", "core.partition_s", func() (err error) { p, err = core.PartitionClustered(g, cfg.Shards, cfg.Policy, cfg.Seed); return err }},
		{"slm.build", "slm.build_s", func() error {
			for m := 0; m < cfg.Shards; m++ {
				idx := p.GlobalIndices(g, m)
				local := make([]string, len(idx))
				for i, gi := range idx {
					local[i] = peptides[gi]
				}
				if _, err := slm.Build(local, cfg.Params); err != nil {
					return err
				}
			}
			return nil
		}},
		{"engine.build", "engine.build_s", func() error {
			sess, err := engine.NewSession(peptides, cfg)
			if err == nil {
				sess.Close()
			}
			return err
		}},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.f(); err != nil {
			return fmt.Errorf("%s: %w", s.layer, err)
		}
		end := time.Now()
		b.tr.record(s.layer, 0, 0, start, end)
		b.layers[s.metric] = end.Sub(start).Seconds()
	}
	runtime.GC()
	return nil
}

// heapInUse returns the bytes of live Go heap after a collection.
func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// bypassed sets to 0 every per-layer metric the workload did not reach.
func bypassed(m map[string]float64) {
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
}
