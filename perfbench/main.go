// Command lbebench is the repository's benchmark: it runs one seeded
// workload against the program's public entry points, checks every
// answer byte for byte against a direct Session.Search, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. perfbench/run.py builds and runs it;
// BENCHMARK.json at the repository root names its workloads and metrics.
//
// Usage (from the repository root, after building):
//
//	lbebench -workload open-batch -seed 1 -seconds 12 -trace 0
//	lbebench summarize results/*.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with -trace 0. A tail is a percentile with at least minBeyond
// samples beyond it, fixed per workload and phase (p75 or p90, see the
// README) and printed beside the value.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"spectra_per_s", "1/s"},
	{"max_rate_rps", "1/s"},
	{"quiet.p50_ms", "ms"},
	{"quiet.tail_ms", "ms"},
	{"busy.p50_ms", "ms"},
	{"busy.tail_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports. A layer a
// workload bypasses reads 0 there.
var perLayer = []metric{
	{"api.wire_ms", "ms"},
	{"api.response_bytes", "bytes"},
	{"router.handler_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.fanout_skew_ms", "ms"},
	{"router.cache_hit_ratio", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.outside_engine_ms", "ms"},
	{"server.spectra_per_batch", "count"},
	{"server.rejected_ratio", "ratio"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.collapsed_ratio", "ratio"},
	{"qcache.resident_mb", "MB"},
	{"engine.open_s", "s"},
	{"engine.first_search_ms", "ms"},
	{"engine.build_s", "s"},
	{"engine.batch_ms", "ms"},
	{"engine.index_mb", "MB"},
	{"engine.save_s", "s"},
	{"sched.busy_us_per_spectrum", "us"},
	{"sched.utilization", "ratio"},
	{"sched.worker_imbalance", "ratio"},
	{"sched.steals_per_batch", "count"},
	{"core.group_s", "s"},
	{"core.partition_s", "s"},
	{"digest.s", "s"},
	{"core.load_imbalance", "ratio"},
	{"slm.ion_hits_per_spectrum", "count"},
	{"slm.ns_per_ion_hit", "ns"},
	{"slm.scored_per_candidate", "ratio"},
	{"slm.build_s", "s"},
	{"slm.pruned_ratio", "ratio"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// setups is how many times a run sets the workload up; setup_s is the
// median.
const setups = 7

// rounds is how many times a run alternates its measured phases.
const rounds = 5

var inf = math.Inf(1)

// shape records what a workload ran on, for the result stamp.
type shape struct {
	Shards            int    `json:"shards"`
	Tolerance         string `json:"precursor_tolerance"`
	IndexRows         int    `json:"index_rows"`
	Spectra           int    `json:"spectra"`
	SpectraPerRequest int    `json:"spectra_per_request"`
	Load              string `json:"load"`
}

// bench is one run of one workload.
type bench struct {
	seed    uint64
	seconds float64
	work    string  // scratch directory for stores
	tr      *tracer // nil unless -trace 1
	conns   int     // client connections = nproc
	nextID  uint64

	shape  shape
	e2e    map[string]float64
	layers map[string]float64
	notes  []string

	attempted, failed, wrong int
}

func (b *bench) tracing() bool { return b.tr != nil }

// dur is share of the run's measured seconds.
func (b *bench) dur(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// tally counts one phase's requests: failures are non-200 answers and
// transport errors, wrong are 200 answers that differ from the oracle.
func (b *bench) tally(r run, wrong int) {
	b.attempted += len(r.out)
	for _, o := range r.out {
		if !o.ok() {
			b.failed++
		}
	}
	b.failed += wrong
	b.wrong += wrong
}

// latency records a phase's median and tail under prefix.
func (b *bench) latency(prefix string, l latency) {
	b.e2e[prefix+".p50_ms"] = l.P50
	b.e2e[prefix+".tail_ms"] = l.Tail
	warn := ""
	if l.Kept > 0 {
		warn = fmt.Sprintf(", %d of them due while the host stole little CPU", l.Kept)
	}
	if !l.supported() {
		warn += fmt.Sprintf(" — only %d samples beyond, fewer than %d", l.Beyond, minBeyond)
	}
	b.note("%s: p50 %.3f ms, tail p%g %.3f ms over %d requests%s (whole phase: p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f)", prefix, l.P50, 100*l.TailQ, l.Tail, l.N, warn,
		percentile(l.sorted, 0.5), percentile(l.sorted, 0.9), percentile(l.sorted, 0.95), percentile(l.sorted, 0.99))
}

var workloads = map[string]func(*bench) error{
	"open-batch":   openBatch,
	"narrow-serve": narrowServe,
	"zipf-scatter": zipfScatter,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		if err := summarizeFiles(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbebench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload: open-batch, narrow-serve or zipf-scatter")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs and arrival schedule")
		seconds  = flag.Float64("seconds", 30, "seconds of measured load")
		trace    = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
		work     = flag.String("work", ".bench_build/perfbench/work", "scratch directory for stores")
		out      = flag.String("out", ".bench_build/perfbench/results", "directory for result and span files")
		src      = flag.String("src", ".", "repository root, for the source digest in the stamp")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lbebench: need -workload (open-batch|narrow-serve|zipf-scatter), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	b := &bench{seed: *seed, seconds: *seconds, conns: nproc, e2e: map[string]float64{}, layers: map[string]float64{}}
	if *trace == 1 {
		b.tr = newTracer()
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	b.work = dir
	total0, steal0 := hostJiffies()
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = run(b)
	}
	if total1, steal1 := hostJiffies(); total1 > total0 {
		b.note("host CPU stolen by other guests during the run: %.1f%%", 100*(steal1-steal0)/(total1-total0))
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := b.report(*workload, *out, *src, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "lbebench: %v\n", err)
		os.Exit(1)
	}
	if b.wrong > 0 {
		os.Exit(1)
	}
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite keeps the result line valid JSON: a latency every request of a
// phase missed (+Inf) is reported as an enormous number instead.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// report prints the table and the result line and writes the stamped
// result file (and, traced, the spans).
func (b *bench) report(workload, outDir, src string, trace int) error {
	st := stampNow(src)
	list, got := endToEnd, b.e2e
	if trace == 1 {
		list, got = perLayer, b.layers
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, m.name)
		}
		metrics[m.name] = value{finite(v), m.unit}
	}
	errorRate := ratio(float64(b.failed), float64(b.attempted))

	fmt.Printf("workload %s seed %d trace %d: %s\n", workload, b.seed, trace, st.line())
	fmt.Printf("  shape: %d shards, precursor tolerance %s, %d index rows, %d spectra, %d per request, %s\n",
		b.shape.Shards, b.shape.Tolerance, b.shape.IndexRows, b.shape.Spectra, b.shape.SpectraPerRequest, b.shape.Load)
	for _, n := range b.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, m := range endToEnd {
		if v, ok := b.e2e[m.name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	fmt.Printf("  %-28s %14.4f ratio (%d failed of %d attempted, %d wrong answers)\n", "error_rate", errorRate, b.failed, b.attempted, b.wrong)
	if trace == 1 {
		for _, m := range perLayer {
			fmt.Printf("  %-28s %14.4f %s\n", m.name, b.layers[m.name], m.unit)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, b.seed, trace))
	file := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Trace     int                `json:"trace"`
		Seconds   float64            `json:"seconds"`
		Stamp     stamp              `json:"stamp"`
		Shape     shape              `json:"shape"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
		ErrorRate float64            `json:"error_rate"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Wrong     int                `json:"wrong"`
		Notes     []string           `json:"notes"`
	}{workload, b.seed, trace, b.seconds, st, b.shape, finiteMap(b.e2e), nil, errorRate, b.attempted, b.failed, b.wrong, b.notes}
	if trace == 1 {
		file.PerLayer = finiteMap(b.layers)
		if err := writeSpans(base+".spans.jsonl", b.tr.all()); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.wrong == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// formatAll prints xs to four significant digits, space-separated.
func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func finiteMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = finite(v)
	}
	return out
}

// summarizeFiles prints, per workload and metric, the median and the
// interquartile range as a share of the median across result files.
func summarizeFiles(paths []string) error {
	if len(paths) == 0 {
		return errors.New("summarize: no result files given")
	}
	vals := map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var f struct {
			Workload string             `json:"workload"`
			EndToEnd map[string]float64 `json:"end_to_end"`
			PerLayer map[string]float64 `json:"per_layer"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for k, v := range f.EndToEnd {
			vals[f.Workload+" "+k] = append(vals[f.Workload+" "+k], v)
		}
		for k, v := range f.PerLayer {
			vals[f.Workload+" "+k] = append(vals[f.Workload+" "+k], v)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := vals[k]
		q1, q3 := quartiles(xs)
		fmt.Printf("%-44s n=%-3d median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %.3f\n",
			strings.Replace(k, " ", "  ", 1), len(xs), median(xs), q1, q3, spread(xs))
	}
	return nil
}
