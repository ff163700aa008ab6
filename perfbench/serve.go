package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/gen"
	"lbe/internal/mass"
	"lbe/internal/router"
	"lbe/internal/server"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// The serving workloads drive an in-process deployment over loopback
// HTTP, as lbe-serve and lbe-router run it with their CLI defaults, from
// an open-loop generator in the same process. Each run sets up, warms up,
// then measures rounds of three phases: quiet and busy fixed rates, and a
// saturated closed loop for the deployment's capacity.
const (
	cacheBytes = 64 << 20 // the CLIs' default answer cache
	// Shares of the measured seconds, split evenly over the rounds.
	serveQuiet    = 0.35
	serveBusy     = 0.3
	serveSaturate = 0.35
	// Rates in requests per second, well under both deployments'
	// capacity (see the README).
	quietRate = 100
	busyRate  = 200
	// saturateChunk is how many requests the saturated phase makes and
	// checks at a time: about a tenth of a second's worth.
	saturateChunk = 64
	warmup        = time.Second
)

// plan is what sets a serving workload's traffic apart.
type plan struct {
	perRequest int     // spectra per request
	outer      string  // layer of the outermost handler
	sets       int     // shard-sets the router fans out to; 0 without a router
	tail       float64 // the tail quantile reported for quiet and busy
}

var (
	narrowPlan = plan{perRequest: 1, outer: "server", tail: 0.75}
	// zipf-scatter's slowest quarter are its partial hits: p90 lies
	// inside that class, p75 on its edge.
	zipfPlan = plan{perRequest: 8, outer: "router", sets: 2, tail: 0.9}
)

// request is one /search call and the spectra it carries.
type request struct {
	body []byte
	qs   []spectrum.Experimental
}

// source makes the requests of a workload, in order.
type source interface {
	next(n int) ([]request, error)
}

// serving is one serving workload's state across its phases.
type serving struct {
	plan     plan
	d        *deployment
	src      source
	peptides []string
	// oracle answers spectra as a direct Session.Search does: on the
	// served store, or on the whole store for scatter.
	oracle func([]spectrum.Experimental) ([][]engine.PSM, error)
	rng    *rand.Rand // the arrival schedule

	traced     counters
	tracedWall float64
	tracedRuns []run
}

// deployment is a running serving stack and the client that drives it.
type deployment struct {
	sessions  []*engine.Session
	servers   []*server.Server
	router    *router.Router
	https     []*http.Server
	transport *http.Transport
	client    *api.Client
	openS     float64 // store opens, summed
	firstMS   float64 // first direct Session.Search per session, summed (traced runs)
}

func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	for _, hs := range d.https {
		hs.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	for _, s := range d.sessions {
		s.Close()
	}
}

func (d *deployment) snapshot() counters { return snapshot(d.sessions, d.servers, d.router) }

// listen serves h on a loopback port, behind the tracer's wrapper when
// tracing.
func (b *bench) listen(d *deployment, layer string, h http.Handler) (string, error) {
	if b.tracing() {
		h = b.tr.handler(layer, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.https = append(d.https, hs)
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// deploy opens each store, serves it as lbe-serve -index does and, for
// scatter, puts an lbe-router -scatter in front. probe is searched
// directly on each session right after its open in traced runs, timing
// the engine's first search apart from the HTTP path.
func (b *bench) deploy(dirs []string, mapped, scatter bool, probe []spectrum.Experimental) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for _, dir := range dirs {
		start := time.Now()
		sess, peps, err := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: mapped})
		if err != nil {
			d.close()
			return nil, err
		}
		d.openS += time.Since(start).Seconds()
		d.sessions = append(d.sessions, sess)
		sess.Tune(0, 256) // lbe-serve's -threads and -batch defaults
		if b.tracing() {
			start := time.Now()
			if _, err := sess.Search(context.Background(), probe); err != nil {
				d.close()
				return nil, err
			}
			d.firstMS += ms(time.Since(start))
		}
		cfg := server.DefaultConfig()
		cfg.CacheBytes = cacheBytes
		srv := server.New(sess, peps, cfg)
		d.servers = append(d.servers, srv)
		url, err := b.listen(d, "server", srv.Handler())
		if err != nil {
			d.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	url := urls[0]
	if scatter {
		rt, err := router.New(urls, router.Config{Scatter: true, CacheBytes: cacheBytes})
		if err != nil {
			d.close()
			return nil, err
		}
		d.router = rt
		if url, err = b.listen(d, "router", rt.Handler()); err != nil {
			d.close()
			return nil, err
		}
	}
	// At most nproc connections: one per sender of the load generator.
	d.transport = &http.Transport{MaxConnsPerHost: b.conns, MaxIdleConnsPerHost: b.conns, DisableCompression: true}
	var rt http.RoundTripper = d.transport
	if b.tracing() {
		rt = idTransport{base: rt, t: b.tr}
	}
	d.client = &api.Client{BaseURL: url, HTTPClient: &http.Client{Transport: rt}, Timeout: 30 * time.Second, Retries: -1}
	return d, nil
}

// setUp deploys the workload setups times, each time from the store open
// to the first answer, and keeps the last deployment. Every set-up's
// answer must be correct: a failed or wrong one is an error, not a time.
func (b *bench) setUp(w *serving, dirs []string, mapped, scatter bool) error {
	first, err := w.src.next(1)
	if err != nil {
		return err
	}
	base := heapInUse()
	var times, opens, firsts []float64
	for i := 0; i < setups; i++ {
		if w.d != nil {
			w.d.close()
			w.d = nil
			runtime.GC()
		}
		start := time.Now()
		d, err := b.deploy(dirs, mapped, scatter, first[0].qs)
		if err != nil {
			return err
		}
		w.d = d
		st, body, err := d.client.Do(context.Background(), http.MethodPost, "/search", first[0].body)
		elapsed := time.Since(start).Seconds()
		answer := []outcome{{status: st, body: body, err: err}}
		wrong, err := b.verify(w, first, answer)
		b.tally(run{out: answer}, wrong)
		switch {
		case err != nil:
			return err
		case !answer[0].ok():
			return fmt.Errorf("setup %d: first request failed: status %d, %v", i+1, st, answer[0].err)
		case wrong > 0:
			return fmt.Errorf("setup %d: first answer differs from the oracle's", i+1)
		}
		times = append(times, elapsed)
		opens = append(opens, d.openS)
		firsts = append(firsts, d.firstMS)
	}
	b.e2e["setup_s"] = median(times)
	b.note("setup: %s s", formatAll(times))
	b.e2e["heap_mb"] = (heapInUse() - base) / (1 << 20)
	b.layers["engine.open_s"] = median(opens)
	b.layers["engine.first_search_ms"] = median(firsts)
	var index int
	for _, s := range w.d.sessions {
		index += s.IndexBytes()
	}
	b.layers["engine.index_mb"] = float64(index) / (1 << 20)
	return nil
}

// verify counts the 200 answers that differ byte for byte from the
// oracle's rendering of the same spectra.
func (b *bench) verify(w *serving, reqs []request, out []outcome) (int, error) {
	var qs []spectrum.Experimental
	for i, o := range out {
		if o.ok() {
			qs = append(qs, reqs[i].qs...)
		}
	}
	if len(qs) == 0 {
		return 0, nil
	}
	psms, err := w.oracle(qs)
	if err != nil {
		return 0, err
	}
	wrong, k := 0, 0
	for i, o := range out {
		if !o.ok() {
			continue
		}
		n := len(reqs[i].qs)
		if !bytes.Equal(o.body, render(reqs[i].qs, psms[k:k+n], w.peptides)) {
			wrong++
		}
		k += n
	}
	return wrong, nil
}

// phase offers requests at rate for d on a fresh seeded schedule, checks
// every answer and, when traced, accumulates the layers' counters.
func (b *bench) phase(w *serving, rate float64, d time.Duration, traced bool) (run, error) {
	due := poisson(w.rng, rate, d)
	reqs, err := w.src.next(len(due))
	if err != nil {
		return run{}, err
	}
	steal := meterSteal(d)
	r, err := b.offer(w, reqs, due, traced)
	r.steal = steal()
	return r, err
}

// offer sends reqs[i] at due[i] over the generator's connections, checks
// every answer and, when traced, accumulates the layers' counters.
func (b *bench) offer(w *serving, reqs []request, due []time.Duration, traced bool) (run, error) {
	firstID := b.nextID + 1
	b.nextID += uint64(len(due))
	b.tr.set(traced)
	before := w.d.snapshot()
	r := openLoop(context.Background(), due, b.conns, func(ctx context.Context, i int) (int, []byte, error) {
		id := firstID + uint64(i)
		start := time.Now()
		st, body, err := w.d.client.Do(withID(ctx, id), http.MethodPost, "/search", reqs[i].body)
		b.tr.record("client", id, 0, start, time.Now())
		return st, body, err
	})
	b.tr.set(false)
	if traced {
		w.traced.add(w.d.snapshot().since(before))
		w.tracedWall += r.wall.Seconds()
		w.tracedRuns = append(w.tracedRuns, r)
	}
	wrong, err := b.verify(w, reqs, r.out)
	b.tally(r, wrong)
	return r, err
}

// saturate keeps every connection busy for about d, each sending its next
// request as soon as the previous answer is back. It makes the requests
// and checks the answers in chunks of saturateChunk, between which the
// clock stops, and returns each chunk's rate of correct answers and the
// host's stolen CPU share while it ran and was checked. The rate is the
// deployment's capacity, past which an open loop's backlog grows without
// bound.
func (b *bench) saturate(w *serving, d time.Duration) (rates, steal []float64, err error) {
	for wall := time.Duration(0); wall < d; {
		reqs, err := w.src.next(saturateChunk)
		if err != nil {
			return nil, nil, err
		}
		failed := b.failed
		t0, s0 := hostJiffies()
		r, err := b.offer(w, reqs, make([]time.Duration, len(reqs)), false)
		t1, s1 := hostJiffies()
		if err != nil {
			return nil, nil, err
		}
		rates = append(rates, float64(len(reqs)-(b.failed-failed))/r.wall.Seconds())
		steal = append(steal, ratio(s1-s0, t1-t0))
		wall += r.wall
	}
	return rates, steal, nil
}

// closedLoop sends reqs one after another, unmeasured but checked, to
// bring the caches to the state the measured phases assume.
func (b *bench) closedLoop(w *serving, reqs []request) error {
	out := make([]outcome, len(reqs))
	for i, rq := range reqs {
		st, body, err := w.d.client.Do(context.Background(), http.MethodPost, "/search", rq.body)
		out[i] = outcome{status: st, body: body, err: err}
	}
	wrong, err := b.verify(w, reqs, out)
	b.tally(run{out: out}, wrong)
	return err
}

// serve runs the measured phases of a set-up serving workload: rounds of
// a quiet phase, a busy phase and a saturated one. Each phase's figures
// are taken over all its rounds.
func (b *bench) serve(w *serving) error {
	if _, err := b.phase(w, busyRate, warmup, false); err != nil {
		return err
	}
	if b.tracing() {
		return b.serveTraced(w)
	}
	var quiet, busy []run
	var rates, steal []float64
	for i := 0; i < rounds; i++ {
		q, err := b.phase(w, quietRate, b.dur(serveQuiet/rounds), false)
		if err != nil {
			return err
		}
		bz, err := b.phase(w, busyRate, b.dur(serveBusy/rounds), false)
		if err != nil {
			return err
		}
		r, st, err := b.saturate(w, b.dur(serveSaturate/rounds))
		if err != nil {
			return err
		}
		quiet, busy = append(quiet, q), append(busy, bz)
		rates, steal = append(rates, r...), append(steal, st...)
	}
	b.latency("quiet", calmRuns(quiet, w.plan.tail))
	b.latency("busy", calmRuns(busy, w.plan.tail))
	b.note("generator lateness p99: quiet %.3f ms, busy %.3f ms", latenessP99(quiet...), latenessP99(busy...))
	capacity, kept := calmRate(rates, steal)
	b.note("capacity: %.1f requests/s, the median of %d of %d chunks of %d requests, those sent while the host stole least", capacity, kept, len(rates), saturateChunk)
	b.e2e["max_rate_rps"] = capacity
	b.e2e["spectra_per_s"] = capacity * float64(w.plan.perRequest)
	return nil
}

// calmRuns summarizes a phase's runs over their calm requests.
func calmRuns(runs []run, tailQ float64) latency {
	phase := make([]sampled, len(runs))
	for i, r := range runs {
		phase[i] = sampled{r.latencies(), r.dues(), r.steal}
	}
	return calm(phase, tailQ)
}

// serveTraced runs a traced quiet phase, then busy untraced and traced in
// alternating sixths, whose gap is the tracing overhead.
func (b *bench) serveTraced(w *serving) error {
	quiet, err := b.phase(w, quietRate, b.dur(1.0/3), true)
	if err != nil {
		return err
	}
	b.latency("quiet", calmRuns([]run{quiet}, w.plan.tail))
	var lat [2][]float64
	for i, on := range []bool{false, true, false, true} {
		r, err := b.phase(w, busyRate, b.dur(1.0/6), on)
		if err != nil {
			return err
		}
		lat[i%2] = append(lat[i%2], r.latencies()...)
	}
	untraced, traced := summarize(lat[0], w.plan.tail), summarize(lat[1], w.plan.tail)
	b.latency("busy", untraced)
	b.note("busy traced: p50 %.3f ms over %d requests", traced.P50, traced.N)
	b.layers["trace.overhead_pct"] = 100 * (ratio(traced.P50, untraced.P50) - 1)
	b.servingLayers(w)
	return nil
}

func latenessP99(runs ...run) float64 {
	var all []float64
	for _, r := range runs {
		all = append(all, r.lateness...)
	}
	sort.Float64s(all)
	return percentile(all, 0.99)
}

// servingLayers derives the per-layer metrics of a traced serving run
// from its spans and counter differences. Span times are means, so that
// they add up: a client span is its wire time plus its handler span.
func (b *bench) servingLayers(w *serving) {
	spans := b.tr.all()
	m, d := b.layers, w.traced
	m["api.wire_ms"] = stats.Mean(wireTimes(spans, w.plan.outer))
	var sizes []float64
	for _, r := range w.tracedRuns {
		for _, o := range r.out {
			sizes = append(sizes, float64(len(o.body)))
		}
	}
	m["api.response_bytes"] = stats.Mean(sizes)
	if w.plan.sets > 0 {
		m["router.handler_ms"] = stats.Mean(layerMS(spans, "router"))
		self, skew := fanout(spans, w.plan.sets)
		m["router.self_ms"] = stats.Mean(self)
		m["router.fanout_skew_ms"] = stats.Mean(skew)
		m["router.cache_hit_ratio"] = ratio(float64(d.rHits), float64(d.rHits+d.rMisses))
	}
	hs := layerMS(spans, "server")
	m["server.handler_ms"] = stats.Mean(hs)
	m["server.outside_engine_ms"] = stats.Mean(hs) - ratio(float64(d.busyNanos)/1e6, float64(len(hs)))
	m["server.spectra_per_batch"] = ratio(float64(d.batchedQs), float64(d.batches))
	m["server.rejected_ratio"] = ratio(float64(d.rejected), float64(d.accepted+d.rejected))
	m["qcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	m["qcache.collapsed_ratio"] = ratio(float64(d.collapsed), float64(d.hits+d.misses+d.collapsed))
	m["qcache.resident_mb"] = float64(d.residentBytes+d.rResidentBytes) / (1 << 20)
	engineLayers(m, d, w.tracedWall)
	m["gen.lateness_p99_ms"] = latenessP99(w.tracedRuns...)
	bypassed(m)
}

// buildStore builds a session over db and saves it into dir/store, and
// with sets > 0 also cut into that many shard-sets under dir/sets,
// timing the build and the save the workload serves for the engine layer.
// It returns the whole store's directory and the directories to serve.
func (b *bench) buildStore(db database, cfg engine.SessionConfig, dir string, sets int) (string, []string, error) {
	start := time.Now()
	sess, err := engine.NewSession(db.peptides, cfg)
	if err != nil {
		return "", nil, err
	}
	defer sess.Close()
	b.layers["engine.build_s"] = time.Since(start).Seconds()
	whole := filepath.Join(dir, "store")
	start = time.Now()
	if err := sess.Save(whole, db.peptides); err != nil {
		return "", nil, err
	}
	if sets == 0 {
		b.layers["engine.save_s"] = time.Since(start).Seconds()
		return whole, []string{whole}, nil
	}
	start = time.Now()
	cm, err := sess.SavePartitioned(filepath.Join(dir, "sets"), db.peptides, sets)
	if err != nil {
		return "", nil, err
	}
	b.layers["engine.save_s"] = time.Since(start).Seconds()
	var dirs []string
	for _, sd := range cm.SetDirs {
		dirs = append(dirs, filepath.Join(dir, "sets", sd))
	}
	return whole, dirs, nil
}

// fresh makes spectra never sent before, so each misses the answer cache.
type fresh struct {
	peptides []string
	seed     uint64
	scan     int // the last scan number used
	made     int
}

func (f *fresh) spectra(n int) ([]spectrum.Experimental, error) {
	qs, err := spectra(f.peptides, f.seed+uint64(f.made)*0x9E3779B97F4A7C15, n, f.scan+1)
	f.scan += n
	f.made += n
	return qs, err
}

// next makes single-spectrum requests of fresh spectra.
func (f *fresh) next(n int) ([]request, error) {
	qs, err := f.spectra(n)
	if err != nil {
		return nil, err
	}
	reqs := make([]request, n)
	for i := range qs {
		reqs[i] = request{body: searchBody(qs[i : i+1]), qs: qs[i : i+1]}
	}
	return reqs, nil
}

// sessionOracle answers spectra with a direct Session.Search.
func sessionOracle(sess func() *engine.Session) func([]spectrum.Experimental) ([][]engine.PSM, error) {
	return func(qs []spectrum.Experimental) ([][]engine.PSM, error) {
		res, err := sess().Search(context.Background(), qs)
		if err != nil {
			return nil, err
		}
		return res.PSMs, nil
	}
}

// poolOracle answers spectra as a direct Session.Search of sess does, with
// the answers for pool, told apart by scan number, searched in advance.
func poolOracle(sess *engine.Session, pool []spectrum.Experimental) (func([]spectrum.Experimental) ([][]engine.PSM, error), error) {
	search := sessionOracle(func() *engine.Session { return sess })
	known, err := search(pool)
	if err != nil {
		return nil, err
	}
	byScan := make(map[int][]engine.PSM, len(pool))
	for i, q := range pool {
		byScan[q.Scan] = known[i]
	}
	return func(qs []spectrum.Experimental) ([][]engine.PSM, error) {
		out := make([][]engine.PSM, len(qs))
		var miss []spectrum.Experimental
		var at []int
		for i, q := range qs {
			if p, ok := byScan[q.Scan]; ok {
				out[i] = p
			} else {
				miss, at = append(miss, q), append(at, i)
			}
		}
		if len(miss) > 0 {
			found, err := search(miss)
			if err != nil {
				return nil, err
			}
			for k, i := range at {
				out[i] = found[k]
			}
		}
		return out, nil
	}, nil
}

func narrowServe(b *bench) error {
	db, err := makeDatabase()
	if err != nil {
		return err
	}
	const shards = 4
	_, dirs, err := b.buildStore(db, sessionConfig(shards, mass.Da(0.01)), b.work, 0)
	if err != nil {
		return err
	}
	runtime.GC()
	src := &fresh{peptides: db.peptides, seed: b.seed * 7919}
	w := &serving{
		plan:     narrowPlan,
		src:      src,
		peptides: db.peptides,
		rng:      rand.New(rand.NewSource(int64(b.seed))),
	}
	// The oracle searches the served store itself.
	w.oracle = sessionOracle(func() *engine.Session { return w.d.sessions[0] })
	b.shape = shape{Shards: shards, Tolerance: "0.01 Da", IndexRows: db.rows, SpectraPerRequest: 1,
		Load: fmt.Sprintf("open loop, Poisson arrivals, %d connections; every spectrum distinct", b.conns)}
	if err := b.setUp(w, dirs, true, false); err != nil {
		return err
	}
	defer func() { w.d.close() }()
	err = b.serve(w)
	b.shape.Spectra = src.made
	return err
}

// zipf makes 8-spectrum requests in cycles of four. One request of each
// cycle resubmits one of a few popular requests exactly, which the
// router's cache answers. The other three draw their spectra zipf-skewed
// from a fixed pool that the warm-up puts in the holders' caches, and one
// of them swaps a drawn spectrum for one never sent before: a partial hit,
// whose miss the holders search in a sub-batch. The cache state is
// therefore steady from the first measured request on. The shares are
// fixed rather than drawn, because the median and the tail sit between
// these classes' latencies and would move with their shares. They are an
// assumption: no measured trace of resubmissions stands behind them.
type zipf struct {
	pool    []spectrum.Experimental
	popular []request
	pick    *gen.Zipf // over the pool
	pickPop *gen.Zipf // over the popular requests
	fresh   *fresh
	made    int // requests made so far
}

const (
	zipfPool     = 2048
	zipfPopular  = 64
	zipfCycle    = 4 // requests per cycle: one resubmission, one partial hit, the rest pool hits
	zipfExponent = 1.0
)

func newZipf(pool []spectrum.Experimental, f *fresh, seed uint64) *zipf {
	rng := gen.NewRNG(seed)
	z := &zipf{pool: pool, fresh: f, pick: gen.NewZipf(rng, len(pool), zipfExponent), pickPop: gen.NewZipf(rng, zipfPopular, zipfExponent)}
	for i := 0; i < zipfPopular; i++ {
		z.popular = append(z.popular, z.draw(nil))
	}
	return z
}

// draw makes a request of pool spectra, with miss, if not nil, in a slot.
func (z *zipf) draw(miss *spectrum.Experimental) request {
	qs := make([]spectrum.Experimental, zipfPlan.perRequest)
	for i := range qs {
		qs[i] = z.pool[z.pick.Next()]
	}
	if miss != nil {
		qs[z.made%len(qs)] = *miss
	}
	return request{body: searchBody(qs), qs: qs}
}

func (z *zipf) next(n int) ([]request, error) {
	first := (z.made + zipfCycle - 1) / zipfCycle // cycles already past their partial hit
	last := (z.made + n + zipfCycle - 1) / zipfCycle
	fresh, err := z.fresh.spectra(last - first)
	if err != nil {
		return nil, err
	}
	reqs := make([]request, n)
	for i := range reqs {
		switch z.made % zipfCycle {
		case 0:
			reqs[i] = z.draw(&fresh[0])
			fresh = fresh[1:]
		case zipfCycle - 1:
			reqs[i] = z.popular[z.pickPop.Next()]
		default:
			reqs[i] = z.draw(nil)
		}
		z.made++
	}
	return reqs, nil
}

// warm puts every pool spectrum and every popular request in the caches.
func (z *zipf) warm() []request {
	reqs := append([]request(nil), z.popular...)
	per := zipfPlan.perRequest
	for i := 0; i < len(z.pool); i += per {
		qs := z.pool[i:min(i+per, len(z.pool))]
		reqs = append(reqs, request{body: searchBody(qs), qs: qs})
	}
	return reqs
}

func zipfScatter(b *bench) error {
	db, err := makeDatabase()
	if err != nil {
		return err
	}
	// The pool is fixed like the database: its head, which most requests
	// draw from, would otherwise change the cost of a request with the seed.
	pool, err := spectra(db.peptides, databaseSeed+1, zipfPool, 1)
	if err != nil {
		return err
	}
	const shards = 4
	wholeDir, dirs, err := b.buildStore(db, sessionConfig(shards, mass.Da(3)), b.work, zipfPlan.sets)
	if err != nil {
		return err
	}
	// The oracle is the whole store the shard-sets were cut from, mapped
	// so that it adds little to the heap the collector scans.
	whole, _, err := engine.OpenSessionOptions(wholeDir, engine.OpenOptions{MapStore: true})
	if err != nil {
		return err
	}
	defer whole.Close()
	z := newZipf(pool, &fresh{peptides: db.peptides, seed: b.seed * 104729, scan: zipfPool}, b.seed*15485863)
	runtime.GC()
	w := &serving{
		plan:     zipfPlan,
		src:      z,
		peptides: db.peptides,
		rng:      rand.New(rand.NewSource(int64(b.seed))),
	}
	// The pool's answers are searched once, here, so that checking a
	// request searches only its fresh spectrum.
	if w.oracle, err = poolOracle(whole, pool); err != nil {
		return err
	}
	b.shape = shape{Shards: shards, Tolerance: "3 Da", IndexRows: db.rows, Spectra: zipfPool, SpectraPerRequest: zipfPlan.perRequest,
		Load: fmt.Sprintf("open loop, Poisson arrivals, %d connections; zipf s=%g over the pool; of every %d requests one resubmits one of %d popular ones and one carries a fresh spectrum",
			b.conns, zipfExponent, zipfCycle, zipfPopular)}
	if err := b.setUp(w, dirs, false, true); err != nil {
		return err
	}
	defer func() { w.d.close() }()
	if err := b.closedLoop(w, z.warm()); err != nil {
		return err
	}
	err = b.serve(w)
	b.shape.Spectra = zipfPool + z.fresh.made
	return err
}
