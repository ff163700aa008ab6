package main

import (
	"lbe/internal/engine"
	"lbe/internal/router"
	"lbe/internal/server"
	"lbe/internal/stats"
)

// counters is a snapshot of the counters the layers already export:
// Session.Stats and SchedulerStats for the engine, Server.Stats for the
// serving tier and Router.Stats for the router. Where the benchmark cannot
// wrap a boundary — the coalescer's own Session.Search, the scheduler, the
// kernel — the per-layer metrics come from differences of two snapshots.
type counters struct {
	// engine, summed over sessions
	searched                                int64
	ionHits, pruned, candidates, scored     int64
	busyNanos, steals, schedBatches         int64
	shardWork, workerNanos                  []float64 // per shard and per worker, across sessions
	accepted, rejected, batches, batchedQs  int64     // servers, summed
	hits, misses, collapsed, residentBytes  int64     // server answer caches, summed
	rHits, rMisses, rResidentBytes, workers int64     // router answer cache; scheduler workers
}

// snapshot reads the counters of a deployment's layers. Servers and
// router may be nil.
func snapshot(sessions []*engine.Session, servers []*server.Server, rt *router.Router) counters {
	var c counters
	for _, s := range sessions {
		c.searched += s.Searched()
		for _, rs := range s.Stats() {
			c.ionHits += rs.Work.IonHits
			c.pruned += rs.Work.Pruned
			c.candidates += rs.Work.Candidates
			c.scored += rs.Work.Scored
		}
		c.shardWork = append(c.shardWork, engine.WorkUnits(s.Stats())...)
		ss := s.SchedulerStats()
		c.steals += ss.Steals
		c.schedBatches += ss.Batches
		for _, w := range ss.Workers {
			c.busyNanos += w.Nanos
			c.workerNanos = append(c.workerNanos, float64(w.Nanos))
		}
		c.workers += int64(len(ss.Workers))
	}
	for _, s := range servers {
		st := s.Stats()
		c.accepted += st.Accepted
		c.rejected += st.RejectedQueue + st.RejectedDrain
		c.batches += st.Batches
		c.batchedQs += st.BatchedQueries
		if st.Cache != nil {
			c.hits += st.Cache.Hits
			c.misses += st.Cache.Misses
			c.collapsed += st.Cache.Collapsed
			c.residentBytes += st.Cache.ResidentBytes
		}
	}
	if rt != nil {
		if st := rt.Stats(); st.Cache != nil {
			c.rHits, c.rMisses, c.rResidentBytes = st.Cache.Hits, st.Cache.Misses, st.Cache.ResidentBytes
		}
	}
	return c
}

// since returns the counts accumulated from old to c. Gauges (resident
// bytes, worker count) keep c's value.
func (c counters) since(old counters) counters {
	d := c
	d.searched -= old.searched
	d.ionHits -= old.ionHits
	d.pruned -= old.pruned
	d.candidates -= old.candidates
	d.scored -= old.scored
	d.busyNanos -= old.busyNanos
	d.steals -= old.steals
	d.schedBatches -= old.schedBatches
	d.shardWork = diff(c.shardWork, old.shardWork)
	d.workerNanos = diff(c.workerNanos, old.workerNanos)
	d.accepted -= old.accepted
	d.rejected -= old.rejected
	d.batches -= old.batches
	d.batchedQs -= old.batchedQs
	d.hits -= old.hits
	d.misses -= old.misses
	d.collapsed -= old.collapsed
	d.rHits -= old.rHits
	d.rMisses -= old.rMisses
	return d
}

// add accumulates the counts of d into c; gauges take d's value.
func (c *counters) add(d counters) {
	c.searched += d.searched
	c.ionHits += d.ionHits
	c.pruned += d.pruned
	c.candidates += d.candidates
	c.scored += d.scored
	c.busyNanos += d.busyNanos
	c.steals += d.steals
	c.schedBatches += d.schedBatches
	c.shardWork = sum(c.shardWork, d.shardWork)
	c.workerNanos = sum(c.workerNanos, d.workerNanos)
	c.accepted += d.accepted
	c.rejected += d.rejected
	c.batches += d.batches
	c.batchedQs += d.batchedQs
	c.hits += d.hits
	c.misses += d.misses
	c.collapsed += d.collapsed
	c.rHits += d.rHits
	c.rMisses += d.rMisses
	c.residentBytes, c.rResidentBytes, c.workers = d.residentBytes, d.rResidentBytes, d.workers
}

func diff(a, b []float64) []float64 {
	out := append([]float64(nil), a...)
	for i := range out {
		if i < len(b) {
			out[i] -= b[i]
		}
	}
	return out
}

func sum(a, b []float64) []float64 {
	if len(a) < len(b) {
		a = append(a, make([]float64, len(b)-len(a))...)
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}

// engineLayers fills the scheduler, partitioning and kernel metrics from
// the counts d accumulated over wall seconds of traced load.
func engineLayers(m map[string]float64, d counters, wall float64) {
	m["sched.busy_us_per_spectrum"] = ratio(float64(d.busyNanos)/1e3, float64(d.searched))
	m["sched.utilization"] = ratio(float64(d.busyNanos)/1e9, float64(d.workers)*wall)
	m["sched.worker_imbalance"] = stats.LoadImbalance(d.workerNanos)
	m["sched.steals_per_batch"] = ratio(float64(d.steals), float64(d.schedBatches))
	m["core.load_imbalance"] = stats.LoadImbalance(d.shardWork)
	m["slm.ion_hits_per_spectrum"] = ratio(float64(d.ionHits), float64(d.searched))
	m["slm.ns_per_ion_hit"] = ratio(float64(d.busyNanos), float64(d.ionHits))
	m["slm.scored_per_candidate"] = ratio(float64(d.scored), float64(d.candidates))
	m["slm.pruned_ratio"] = ratio(float64(d.pruned), float64(d.pruned+d.ionHits))
}
