package bench

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"lbe/internal/engine"
	"lbe/internal/spectrum"
)

// ColdStart measures the serving cold start the persistent session store
// removes, three ways per index size: the wall time of a full rebuild
// (grouping, policy partition, parallel per-shard index construction),
// engine.OpenSession reading and verifying every shard in the heap, and the mmap
// open that reads only each shard's CRC-protected header and backs the
// arrays with zero-copy views. The rebuild is O(database), the heap open
// O(index bytes), the mapped open O(header) — with the deferred content
// verification and page faults moving into the first query, which the
// figure reports separately, alongside the heap-allocation delta each
// open mode leaves resident.
func ColdStart(o Options) (Figure, error) {
	fig := Figure{
		ID:     "coldstart",
		Title:  fmt.Sprintf("Serving cold start: rebuild vs heap open vs mmap open, %d shards", o.Ranks),
		XLabel: "index size (rows)",
		YLabel: "wall ms",
	}
	rebuild := Series{Label: "rebuild (NewSession)"}
	heapOpen := Series{Label: "heap open (OpenSession, MapStore off)"}
	mmapOpen := Series{Label: "mmap open (OpenSession, MapStore on)"}
	heapFirstQ := Series{Label: "first query batch after heap open"}
	mmapFirstQ := Series{Label: "first query batch after mmap open"}
	var speedups, heapMBs, mmapMBs, storeMB []float64
	for _, sizeM := range paperSizesM {
		c, err := o.corpusAt(sizeM)
		if err != nil {
			return fig, err
		}
		cfg := engineConfig()
		scfg := engine.SessionConfig{Config: cfg, Shards: o.Ranks}

		buildStart := time.Now()
		sess, err := engine.NewSession(c.Peptides, scfg)
		if err != nil {
			return fig, err
		}
		buildMs := float64(time.Since(buildStart).Nanoseconds()) / 1e6

		dir, err := os.MkdirTemp("", "lbe-coldstart-*")
		if err != nil {
			sess.Close()
			return fig, err
		}
		res, err := coldstartStore(o.ctx(), sess, c, dir)
		os.RemoveAll(dir)
		sess.Close()
		if err != nil {
			return fig, err
		}

		x := float64(res.rows)
		rebuild.X, rebuild.Y = append(rebuild.X, x), append(rebuild.Y, buildMs)
		heapOpen.X, heapOpen.Y = append(heapOpen.X, x), append(heapOpen.Y, res.heap.openMs)
		mmapOpen.X, mmapOpen.Y = append(mmapOpen.X, x), append(mmapOpen.Y, res.mmap.openMs)
		heapFirstQ.X, heapFirstQ.Y = append(heapFirstQ.X, x), append(heapFirstQ.Y, res.heap.firstQueryMs)
		mmapFirstQ.X, mmapFirstQ.Y = append(mmapFirstQ.X, x), append(mmapFirstQ.Y, res.mmap.firstQueryMs)
		speedups = append(speedups, res.heap.openMs/res.mmap.openMs)
		heapMBs = append(heapMBs, res.heap.allocMB)
		mmapMBs = append(mmapMBs, res.mmap.allocMB)
		storeMB = append(storeMB, float64(res.storeBytes)/(1<<20))
	}
	fig.Series = []Series{rebuild, heapOpen, mmapOpen, heapFirstQ, mmapFirstQ}
	last := len(speedups) - 1
	fig.Metrics = map[string]float64{
		"rebuild_ms_largest":          rebuild.Y[last],
		"heap_open_ms_largest":        heapOpen.Y[last],
		"mmap_open_ms_largest":        mmapOpen.Y[last],
		"mmap_open_speedup_largest":   speedups[last],
		"heap_first_query_ms_largest": heapFirstQ.Y[last],
		"mmap_first_query_ms_largest": mmapFirstQ.Y[last],
		"heap_open_alloc_mb_largest":  heapMBs[last],
		"mmap_open_alloc_mb_largest":  mmapMBs[last],
		"store_mb_largest":            storeMB[last],
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("mmap-over-heap open speedup per notch: %sx (mmap reads headers only; section CRCs + page faults move into the first query batch, charted separately)",
			trimFloats(speedups)),
		fmt.Sprintf("heap-allocation delta left resident by the open, per notch: heap %s MB vs mmap %s MB — mapped shards live in kernel page cache, shared across co-located processes and reclaimable under pressure",
			trimFloats(heapMBs), trimFloats(mmapMBs)),
		fmt.Sprintf("store size on disk per notch: %s MB; heap-opened, mmap-opened and freshly built sessions verified PSM-identical on a query sample",
			trimFloats(storeMB)))
	return fig, nil
}

// openStats is one open mode's cold-start measurement.
type openStats struct {
	openMs       float64 // OpenSessionOptions wall time
	firstQueryMs float64 // first query batch, including any deferred verification
	allocMB      float64 // Go heap delta left resident by the open
}

// coldstartResult aggregates one size notch of the coldstart figure.
type coldstartResult struct {
	rows       int
	storeBytes int64
	heap       openStats
	mmap       openStats
}

// coldstartStore saves the session to dir, measures a heap and a mapped
// open of it (wall time, resident heap delta, first-query latency), and
// verifies both reloaded sessions answer a query sample exactly like the
// session that saved them.
func coldstartStore(ctx context.Context, sess *engine.Session, c Corpus, dir string) (coldstartResult, error) {
	var res coldstartResult
	if err := sess.Save(dir, c.Peptides); err != nil {
		return res, err
	}
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		res.storeBytes += fi.Size()
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, rs := range sess.Stats() {
		res.rows += rs.Rows
	}

	sample := c.Queries
	if len(sample) > 32 {
		sample = sample[:32]
	}
	// Keep the figure honest: the warm sessions must answer exactly like
	// the one that saved them.
	want, err := sess.Search(ctx, sample)
	if err != nil {
		return res, err
	}
	if res.heap, err = openTimed(ctx, dir, false, sample, want.PSMs); err != nil {
		return res, err
	}
	if res.mmap, err = openTimed(ctx, dir, true, sample, want.PSMs); err != nil {
		return res, err
	}
	return res, nil
}

// openTimed measures one OpenSessionOptions mode against the store in
// dir: open wall time, the Go heap delta the open leaves resident, and
// the latency of the first query batch (for a mapped open this includes
// the deferred store verification and the page faults of first touch).
func openTimed(ctx context.Context, dir string, mapped bool, sample []spectrum.Experimental, want [][]engine.PSM) (openStats, error) {
	var st openStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	openStart := time.Now()
	loaded, _, err := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: mapped})
	if err != nil {
		return st, err
	}
	st.openMs = float64(time.Since(openStart).Nanoseconds()) / 1e6
	defer loaded.Close()

	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		st.allocMB = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	}
	if mapped && loaded.MappedShards() == 0 {
		// The mmap series must not silently chart the fallback path.
		return st, fmt.Errorf("bench: coldstart: mapped open fell back to heap on every shard")
	}

	qStart := time.Now()
	got, err := loaded.Search(ctx, sample)
	if err != nil {
		return st, err
	}
	st.firstQueryMs = float64(time.Since(qStart).Nanoseconds()) / 1e6
	if !reflect.DeepEqual(got.PSMs, want) {
		return st, fmt.Errorf("bench: coldstart: reloaded session PSMs differ from the saved session's (mapped=%v)", mapped)
	}
	return st, nil
}
