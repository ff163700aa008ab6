package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lbe/internal/core"
	"lbe/internal/mpi"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// Message tags of the engine protocol.
const (
	tagResults mpi.Tag = 0x10
	tagStats   mpi.Tag = 0x11
)

// wireMatch is the result tuple a worker returns to the master: a virtual
// (local) peptide index plus scoring data; the master resolves Virtual
// through the mapping table (Fig. 4).
type wireMatch struct {
	Query     int32
	Virtual   uint32
	Shared    uint16
	Score     float64
	Precursor float64
}

// lbePrep is the deterministic serial LBE preprocessing every rank (and
// the Session) replicates: Algorithm 1 grouping plus the policy partition.
type lbePrep struct {
	grouping  core.Grouping
	partition core.Partition
	groupNs   int64
	partNs    int64
}

// prepare runs grouping and partitioning of the peptide database over p
// machines under cfg.
func prepare(peptides []string, cfg Config, p int) (lbePrep, error) {
	var out lbePrep
	groupStart := time.Now()
	if cfg.RawOrder {
		out.grouping = core.IdentityGrouping(len(peptides))
	} else {
		var err error
		out.grouping, err = core.Group(peptides, cfg.Group)
		if err != nil {
			return out, fmt.Errorf("engine: grouping: %w", err)
		}
	}
	out.groupNs = time.Since(groupStart).Nanoseconds()

	partStart := time.Now()
	var err error
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != p {
			return out, fmt.Errorf("engine: %d weights for %d ranks", len(cfg.Weights), p)
		}
		out.partition, err = core.PartitionWeighted(out.grouping, cfg.Weights, cfg.Policy, cfg.Seed)
	} else {
		out.partition, err = core.PartitionClustered(out.grouping, p, cfg.Policy, cfg.Seed)
	}
	if err != nil {
		return out, fmt.Errorf("engine: partition: %w", err)
	}
	out.partNs = time.Since(partStart).Nanoseconds()
	return out, nil
}

// localPeptides extracts machine m's partition of the peptide list.
func (pr lbePrep) localPeptides(peptides []string, m int) []string {
	mine := pr.partition.GlobalIndices(pr.grouping, m)
	local := make([]string, len(mine))
	for i, gidx := range mine {
		local[i] = peptides[gidx]
	}
	return local
}

// RunRank executes one rank of the LBE distributed search. Every rank must
// call it with the same peptide list, query list and configuration (in the
// paper, every machine reads the clustered database and the MS2 dataset).
// The master (rank 0) returns the merged Result; workers return nil.
//
// Each rank builds its partial index with the full cfg.BuildWorkers budget
// (default: one worker per core), which is right when ranks are separate
// machines. Callers running several ranks inside one process should set
// cfg.BuildWorkers to divide the cores among them; the in-process cluster
// runners do this automatically.
func RunRank(c mpi.Comm, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	//lbe:ignore ctxflow uncancellable convenience wrapper; callers needing cancellation use RunRankCtx
	return RunRankCtx(context.Background(), c, peptides, queries, cfg)
}

// RunRankCtx is RunRank with cancellation: when ctx is cancelled the
// pipeline stages shut down between batches and the rank returns ctx's
// error. A rank blocked in a communicator receive is only released when
// the communicator is closed; the cluster runners (RunInProcessCtx,
// RunOverTCPCtx) do that automatically on cancellation.
func RunRankCtx(ctx context.Context, c mpi.Comm, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	start := time.Now()
	rank, size := c.Rank(), c.Size()

	// Internal cancellation lets the master stop its own pipeline the
	// moment merging fails, instead of searching the rest of the run just
	// to report the error. Remote messages are still drained so no
	// goroutine is left parked in a communicator receive.
	outer := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// --- LBE preprocessing (deterministic, replicated on every rank) ---
	prep, err := prepare(peptides, cfg, size)
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d: %w", rank, err)
	}

	// --- local partial index over this rank's peptides ---
	local := prep.localPeptides(peptides, rank)
	buildStart := time.Now()
	ix, err := slm.BuildWorkers(local, cfg.Params, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d build: %w", rank, err)
	}
	buildNanos := time.Since(buildStart).Nanoseconds()

	// Master constructs the mapping table; workers discard partition
	// metadata after construction (paper §III-D).
	var table core.MappingTable
	if rank == 0 {
		table = core.BuildMappingTable(prep.grouping, prep.partition)
	}

	// --- pipelined query phase ---
	if err := mpi.Barrier(c); err != nil {
		return nil, err
	}
	queryPhaseStart := time.Now()

	bsize := cfg.effectiveBatch(len(queries))
	nb := numBatches(len(queries), bsize)
	src := batchSource(ctx, queries, bsize)
	pp := preprocessStage(ctx, src, cfg.Params.MaxQueryPeaks)
	sr := searchStage(ctx, ix, pp, cfg.newPool())

	var work slm.Work
	var queryNanos int64

	if rank != 0 {
		// Worker: stream each searched batch to the master as soon as it
		// is ready, overlapping the next batch's search with the send.
		for s := range sr {
			work.Add(s.work)
			queryNanos += s.nanos
			if err := mpi.SendGob(c, 0, tagResults, flattenWire(s.offset, s.matches)); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		myStats := rankStats(rank, local, ix, buildNanos, queryNanos, work)
		if err := mpi.SendGob(c, 0, tagStats, myStats); err != nil {
			return nil, err
		}
		return nil, nil
	}

	// --- master: incremental merge, overlapped with its own search ---
	res := &Result{
		PSMs:           make([][]PSM, len(queries)),
		Stats:          make([]RankStats, size),
		MappingBytes:   table.MemoryBytes(),
		GroupingNanos:  prep.groupNs,
		PartitionNanos: prep.partNs,
		Groups:         prep.grouping.NumGroups(),
	}

	type gathered struct {
		from int
		wire []wireMatch
		err  error
	}
	mergeCh := make(chan gathered, size)
	var producers sync.WaitGroup

	// Local feeder: the master's own searched batches.
	producers.Add(1)
	go func() {
		defer producers.Done()
		for s := range sr {
			work.Add(s.work)
			queryNanos += s.nanos
			if !send(ctx, mergeCh, gathered{from: 0, wire: flattenWire(s.offset, s.matches)}) {
				return
			}
		}
	}()
	// Remote drainer: every worker sends exactly nb result messages;
	// accept them from any source so fast workers are never blocked
	// behind slow ones. Sends below are unconditional (no ctx select):
	// the merge loop consumes mergeCh until it closes even after an
	// error, so the drainer always runs to completion instead of leaking
	// into a receive on a still-open communicator.
	producers.Add(1)
	go func() {
		defer producers.Done()
		for received := 0; received < (size-1)*nb; received++ {
			var ws []wireMatch
			src, err := mpi.RecvGob(c, mpi.AnySource, tagResults, &ws)
			if err != nil {
				mergeCh <- gathered{err: err}
				return
			}
			mergeCh <- gathered{from: src, wire: ws}
		}
	}()
	go func() {
		producers.Wait()
		close(mergeCh)
	}()

	var mergeErr error
	for g := range mergeCh {
		if mergeErr != nil {
			continue // discard: drain the remote producer to completion
		}
		if g.err != nil {
			mergeErr = g.err
		} else {
			mergeErr = mergeWire(res, table, g.from, g.wire, len(queries))
		}
		if mergeErr != nil {
			// Stop the master's own (expensive) search pipeline; the
			// drainer keeps receiving the remaining (cheap) messages so
			// the communicator is left without a parked receiver.
			cancel()
		}
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	if err := outer.Err(); err != nil {
		return nil, err
	}

	res.Stats[0] = rankStats(0, local, ix, buildNanos, queryNanos, work)
	for peer := 1; peer < size; peer++ {
		var st RankStats
		if _, err := mpi.RecvGob(c, peer, tagStats, &st); err != nil {
			return nil, err
		}
		res.Stats[peer] = st
	}

	for q := range res.PSMs {
		sortPSMs(res.PSMs[q])
		res.PSMs[q] = topK(res.PSMs[q], cfg.TopK)
	}
	res.QueryNanos = time.Since(queryPhaseStart).Nanoseconds()
	res.TotalNanos = time.Since(start).Nanoseconds()
	return res, nil
}

// mergeWire resolves one gathered wire batch through the mapping table
// into the master result.
func mergeWire(res *Result, table core.MappingTable, from int, wire []wireMatch, nQueries int) error {
	for _, w := range wire {
		if int(w.Query) < 0 || int(w.Query) >= nQueries {
			return fmt.Errorf("engine: rank %d sent query index %d out of range", from, w.Query)
		}
		gidx, err := table.Lookup(from, w.Virtual)
		if err != nil {
			return fmt.Errorf("engine: mapping rank %d: %w", from, err)
		}
		res.PSMs[w.Query] = append(res.PSMs[w.Query], PSM{
			Peptide:   gidx,
			Shared:    w.Shared,
			Score:     w.Score,
			Precursor: w.Precursor,
			Origin:    from,
		})
	}
	return nil
}

// rankStats assembles one rank's load accounting.
func rankStats(rank int, local []string, ix *slm.Index, buildNanos, queryNanos int64, work slm.Work) RankStats {
	return RankStats{
		Rank:           rank,
		Peptides:       len(local),
		Rows:           ix.NumRows(),
		IndexBytes:     ix.MemoryBytes(),
		BuildPeakBytes: ix.BuildPeakBytes(),
		BuildNanos:     buildNanos,
		QueryNanos:     queryNanos,
		Work:           work,
	}
}
