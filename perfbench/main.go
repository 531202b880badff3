// Command perfbench is the repository's benchmark. It drives the cache
// through three workloads (serve-hot, embed-churn, serve-tiered-text; see
// the comment at the top of each workload's file for what it stresses
// and why), checks every value it reads back, and prints each metric by
// name with its unit. Run it through run.sh from the repository root,
// which builds it from the checkout's sources first:
//
//	bash perfbench/run.sh                      # every workload, 10 s each
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
//
// Inputs (keys, request streams, value contents) are generated from
// -seed before anything is timed; the program under test receives only
// those keys and values, and every setting keeps its default except the
// deployment ones (capacity, flash directory and size).
//
// With -trace 0 it reports the end-to-end metrics. Throughput is the
// median over quarter-second windows of calls completed per millisecond
// (GET, SET and DELETE calls; a miss's fill is a call of its own).
// Latencies are per-call times, recorded in log-linear buckets with at
// most 0.4 % error, and each percentile is the median over the windows
// (neighbouring windows merged until each holds 50 samples beyond the
// percentile) of that window's percentile, so a burst of interference
// from the host moves it by a few ranks, not by its weight; the record
// line gives each
// distribution's sample count and its highest percentile with ten
// samples beyond it. setup_s is the median of five builds of the system
// (cache, server, connections, warm-up). heap_per_user_byte is the live
// heap after a forced collection, less the live heap before the system
// was built, divided by Cache.Used.
//
// The error rate is not one of the metrics: it is 0 on a correct
// program, and the result line carries it as failed/attempted (a failed
// operation is a call that errored or a value with the wrong length, key
// or checksum; see value.go). The run also reconciles the hits, misses
// and sets it saw against the cache's Stats deltas and reports any
// difference, which makes the result incorrect.
//
// With -trace 1 it runs the workload once untraced and once traced on a
// freshly built system, and reports the per-layer metrics: spans around
// the benchmark's calls into each layer, the server's connection I/O
// through a wrapping net.Listener, the flash tier's file operations
// through a timing faultfs.FS, the engine's eviction-flow counters from
// the cache's metric registry, Stats deltas, runtime/metrics, and direct
// timings of the codec and the flash store. A metric of a layer or
// operation the workload does not exercise is 0. The spans are written
// to spans-<workload>.jsonl in the work directory.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// preceded by a {"record": ...} line with the commit, Go version, nproc,
// GOMAXPROCS, seed and workload sizes, and one line per metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type options struct {
	seed     int64
	seconds  int
	trace    bool
	workdir  string // scratch space for the flash tier, removed after the run
	spanPath string // where a traced run writes its spans
}

// outcome is what one workload run produces.
type outcome struct {
	metrics map[string]float64
	tally   tally
	// problems lists reconciliation failures: client-observed counts that
	// disagree with the cache's own.
	problems []string
	// record holds the sizes and latency details printed before the result.
	record map[string]any
}

type workloadDef struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workloadDef{
	{"serve-hot", runServeHot},
	{"embed-churn", runEmbedChurn},
	{"serve-tiered-text", runTiered},
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric catalogue; BENCHMARK.json names
// the same metrics in the same order. Every workload reports every
// metric; a layer or operation a workload does not exercise reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_kops", "kops"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"set_p50_us", "us"},
	{"set_p99_us", "us"},
	{"hit_ratio", "ratio"},
	{"heap_per_user_byte", "B/B"},
}

// perLayer metrics, grouped by layer; each group's comment names the
// end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	// internal/server, through the traced listener: throughput_kops and
	// get_p50_us on serve-hot and serve-tiered-text; nothing on
	// embed-churn, which has no server.
	{"server.busy_ns_per_op", "ns"},
	{"server.ops_per_write", "count"},
	{"server.reads", "count"},
	{"server.writes", "count"},
	{"server.bytes_per_op", "B"},
	// internal/proto on serve-hot's key/value shape: serve-hot
	// throughput_kops.
	{"proto.encode_ns", "ns"},
	{"proto.decode_ns", "ns"},
	// client (the binary client on serve-hot, the benchmark's text client
	// on serve-tiered-text): serve-hot get_p50_us.
	{"client.get_ns_p50", "ns"},
	{"client.set_ns_p50", "ns"},
	{"client.self_ns", "ns"},
	{"client.errors", "count"},
	// cache facade, timed on embed-churn's direct calls, counted from
	// Stats everywhere: embed-churn throughput_kops and get_p99_us;
	// serve-hot should barely move.
	{"cache.get_ns_p50", "ns"},
	{"cache.get_ns_p99", "ns"},
	{"cache.set_ns_p50", "ns"},
	{"cache.delete_ns_p50", "ns"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.sets", "count"},
	{"cache.evictions", "count"},
	// engine eviction flow from the metric registry: embed-churn
	// hit_ratio.
	{"engine.small_evict", "count"},
	{"engine.main_evict", "count"},
	{"engine.ghost_reinsert", "count"},
	{"engine.small_evict_share", "ratio"},
	// flash tier (Stats, the timing filesystem, direct flash.Store
	// calls): serve-tiered-text get_p99_us and hit_ratio; tier.write_amp
	// is the flash write amplification (tier bytes written per user byte
	// set).
	{"tier.hits", "count"},
	{"tier.hit_share", "ratio"},
	{"tier.demotions", "count"},
	{"tier.declined", "count"},
	{"tier.promotions", "count"},
	{"tier.bytes_written", "B"},
	{"tier.gc_bytes", "B"},
	{"tier.write_amp", "ratio"},
	{"tier.fs_writes", "count"},
	{"tier.fs_write_bytes", "B"},
	{"tier.fs_write_ns", "ns"},
	{"tier.fs_reads", "count"},
	{"tier.fs_read_ns", "ns"},
	{"tier.fs_syncs", "count"},
	{"tier.fs_sync_ns", "ns"},
	{"tier.put_ns", "ns"},
	{"tier.get_ns", "ns"},
	// the benchmark process's runtime, untraced: heap_per_user_byte and
	// get_p99_us on embed-churn and serve-hot; cpu_ns_per_op is CPU time
	// (getrusage) per call, which host CPU steal does not inflate.
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.heap_objects", "count"},
	{"runtime.sched_lat_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.cpu_ns_per_op", "ns"},
	// serve-hot's open loop: whether its latencies can be trusted.
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.offered_kops", "kops"},
	// what the layers above do not explain, and what tracing costs.
	{"remainder.get_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: serve-hot, embed-churn, serve-tiered-text, or all")
	seed := flag.Int64("seed", 1, "seed for the generated keys, values and request streams")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the flash tier's files and the span file")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir}

	var todo []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	for _, w := range todo {
		res, err := runOne(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// runOne runs a workload in a fresh work directory and prints the
// reproducibility record and the metrics before returning the result.
func runOne(w workloadDef, o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.spanPath = filepath.Join(o.workdir, "spans-"+w.name+".jsonl")
	o.workdir = dir
	out, err := w.run(o)
	if err != nil {
		return nil, err
	}
	catalogue := endToEnd
	if o.trace {
		catalogue = perLayer
	}
	res := &result{
		Attempted: out.tally.attempted(),
		Failed:    out.tally.failed(),
		Metrics:   map[string]metricOut{},
	}
	for _, m := range catalogue {
		v, ok := out.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0 && len(out.problems) == 0 && res.Attempted > 0

	rec := map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit(),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"error_rate": errorRate(&out.tally),
		"failures": map[string]uint64{
			"op_errors": out.tally.opErrors, "wrong_len": out.tally.wrongLen,
			"wrong_key": out.tally.wrongKey, "torn": out.tally.torn,
		},
		"reconciliation": out.problems,
	}
	for k, v := range out.record {
		rec[k] = v
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	for _, m := range catalogue {
		fmt.Printf("%-28s %14.4f %s\n", w.name+" "+m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("%-28s %14.6f ratio (%d failed of %d attempted)\n", w.name+" error_rate", errorRate(&out.tally), res.Failed, res.Attempted)
	for _, p := range out.problems {
		fmt.Printf("%s reconciliation: %s\n", w.name, p)
	}
	return res, nil
}

func errorRate(t *tally) float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

// commit returns the VCS revision the binary was built from, when the
// build could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// reconcile compares client-observed counts with the cache's Stats deltas
// and returns one line per disagreement.
func reconcile(t *tally, hits, misses, sets uint64) []string {
	var p []string
	check := func(what string, client, cache uint64) {
		if client != cache {
			p = append(p, fmt.Sprintf("%s: client saw %d, cache counted %d", what, client, cache))
		}
	}
	check("hits", t.hits, hits)
	check("misses", t.misses, misses)
	check("sets", t.sets, sets)
	return p
}

// latencyRecord describes one latency distribution for the record line:
// sample count, median, p99 and the highest percentile with at least ten
// samples beyond it.
func latencyRecord(h *hist) map[string]any {
	top := h.topQuantile()
	return map[string]any{
		"samples":    h.n,
		"p50_us":     h.quantile(0.5) / 1e3,
		"p99_us":     h.quantile(0.99) / 1e3,
		"top_pct":    top * 100,
		"top_us":     h.quantile(top) / 1e3,
		"resolution": "log-linear buckets, <=0.4% relative error",
	}
}
