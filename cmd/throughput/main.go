// Command throughput reproduces Fig. 8: closed-loop throughput scaling of
// the concurrent caches (strict LRU, optimized LRU, TinyLFU, Segcache,
// S3-FIFO) on a Zipf α=1.0 workload, at a large cache (low miss ratio)
// and a small cache (high miss ratio). It also sweeps the S3-FIFO
// queue-shard count and reports sampled per-op latency percentiles, and
// writes the full result matrix as JSON so successive revisions have a
// perf trajectory to regress against.
//
// It also drives the serving engine end-to-end through the TCP server on
// loopback — the bare-structure numbers above bound what the engine can
// do; the server sweep shows what survives the protocol and the
// syscalls.
//
//	throughput -objects 200000 -ops 2000000 -threads 1,2,4,8,16 \
//	    -shards 1,2,4,8 -server-conns 1,2,4 -json BENCH_concurrent.json
//
// Thread counts above GOMAXPROCS measure oversubscription, not scaling;
// the default sweep stops at the machine's core count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"s3fifo/internal/concurrent"
	"s3fifo/internal/harness"
)

// benchRow is one (cache, cache size, threads, shards) measurement in the
// JSON trajectory file.
type benchRow struct {
	Cache     string  `json:"cache"`
	CacheMode string  `json:"cache_mode"` // "large" (objects/10) or "small" (objects/100)
	Threads   int     `json:"threads"`
	Shards    int     `json:"shards,omitempty"` // 0 = not applicable / default
	Mops      float64 `json:"mops"`
	HitRatio  float64 `json:"hit_ratio"`
	P50Ns     int64   `json:"p50_ns"`
	P99Ns     int64   `json:"p99_ns"`
	P999Ns    int64   `json:"p999_ns"`
}

// serverRow is one (protocol, connections) end-to-end measurement
// through the TCP server.
type serverRow struct {
	Proto    string  `json:"proto"`
	Conns    int     `json:"conns"`
	Kops     float64 `json:"kops"`
	HitRatio float64 `json:"hit_ratio"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	P999Ns   int64   `json:"p999_ns"`
}

// serverSweep is the "engines" section of BENCH_concurrent.json (named
// for the engine comparison it once held): the serving stack over TCP,
// text vs binary vs pipelined-binary protocol.
type serverSweep struct {
	Objects       int         `json:"objects"`
	Ops           int         `json:"ops"`
	PipelineDepth int         `json:"pipeline_depth"`
	Note          string      `json:"note"`
	Rows          []serverRow `json:"rows"`
}

// clusterRow is one (nodes, replication) cluster-router measurement.
type clusterRow struct {
	Nodes       int     `json:"nodes"`
	Replication int     `json:"replication"`
	Kops        float64 `json:"kops"`
	HitRatio    float64 `json:"hit_ratio"`
	HotGets     uint64  `json:"hot_gets"`
	ReadRepairs uint64  `json:"read_repairs"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	P999Ns      int64   `json:"p999_ns"`
}

// clusterFile is the BENCH_cluster.json layout: the cluster-router sweep
// at fixed total capacity.
type clusterFile struct {
	Objects       int          `json:"objects"`
	Ops           int          `json:"ops"`
	Workers       int          `json:"workers"`
	PipelineDepth int          `json:"pipeline_depth"`
	Note          string       `json:"note"`
	Rows          []clusterRow `json:"rows"`
}

// openLoopRow is one (protocol, offered rate) latency-under-load point.
type openLoopRow struct {
	Proto    string  `json:"proto"`
	Rate     int     `json:"rate"`
	Achieved float64 `json:"achieved"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
}

// openLoopSection is the "openloop" section of BENCH_concurrent.json:
// fixed-arrival-rate latency curves, measured from scheduled arrival
// time so queueing under overload is visible (no coordinated omission).
type openLoopSection struct {
	Objects       int           `json:"objects"`
	Conns         int           `json:"conns"`
	PipelineDepth int           `json:"pipeline_depth"`
	DurationSecs  float64       `json:"duration_secs"`
	Note          string        `json:"note"`
	Rows          []openLoopRow `json:"rows"`
}

// telemetrySection is the "telemetry" section of BENCH_concurrent.json:
// the facade-level cost of a live metrics registry vs the nil-registry
// fast path.
type telemetrySection struct {
	Objects     int     `json:"objects"`
	Ops         int     `json:"ops"`
	Trials      int     `json:"trials"`
	Note        string  `json:"note"`
	BaseMops    float64 `json:"base_mops"`
	MetricsMops float64 `json:"metrics_mops"`
	OverheadPct float64 `json:"overhead_pct"`
}

// restartRow is one warm-restart recovery measurement.
type restartRow struct {
	SteadyHitRatio float64 `json:"steady_hit_ratio"`
	WarmHitRatio   float64 `json:"warm_hit_ratio"`
	ColdHitRatio   float64 `json:"cold_hit_ratio"`
	Recovery       float64 `json:"recovery"`
	SnapshotBytes  int64   `json:"snapshot_bytes"`
	SaveMs         float64 `json:"save_ms"`
	LoadMs         float64 `json:"load_ms"`
}

// restartFile is the BENCH_restart.json layout: warm-restart hit-ratio
// recovery (snapshot shutdown, restore, first-window hit
// ratio vs pre-shutdown steady state and vs a cold restart).
type restartFile struct {
	Objects   int          `json:"objects"`
	WarmOps   int          `json:"warm_ops"`
	WindowOps int          `json:"window_ops"`
	Note      string       `json:"note"`
	Rows      []restartRow `json:"rows"`
}

// benchFile is the BENCH_concurrent.json layout.
type benchFile struct {
	Objects      int               `json:"objects"`
	OpsPerThread int               `json:"ops_per_thread"`
	Note         string            `json:"note"`
	Rows         []benchRow        `json:"rows"`
	Server       *serverSweep      `json:"engines,omitempty"`
	OpenLoop     *openLoopSection  `json:"openloop,omitempty"`
	Telemetry    *telemetrySection `json:"telemetry,omitempty"`
}

func parseInts(flagName, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "throughput: bad -%s value %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	objects := flag.Int("objects", 200_000, "distinct objects in the workload")
	ops := flag.Int("ops", 2_000_000, "operations per measurement")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default 1,2,4,8,16 capped at NumCPU)")
	shardsFlag := flag.String("shards", "1,2,4,8", "comma-separated S3-FIFO queue-shard counts to sweep (empty disables)")
	jsonPath := flag.String("json", "BENCH_concurrent.json", "write the result matrix as JSON to this path (empty disables)")
	serverConns := flag.String("server-conns", "1,2,4", "client-connection counts for the server sweep (empty disables)")
	serverObjects := flag.Int("server-objects", 20_000, "distinct objects in the server-sweep workload")
	serverOps := flag.Int("server-ops", 200_000, "total operations per server-sweep measurement")
	protosFlag := flag.String("protos", "text,binary,pipelined",
		"protocol modes for the server sweep: text, binary, pipelined")
	pipelineDepth := flag.Int("pipeline-depth", 32, "in-flight window per connection in pipelined mode")
	openLoop := flag.Bool("openloop", true, "measure latency under fixed offered load per protocol")
	openLoopRates := flag.String("openloop-rates", "5000,20000,50000", "offered loads (req/s) for the open-loop curves")
	openLoopSecs := flag.Float64("openloop-secs", 3, "seconds per open-loop point")
	clusterNodes := flag.String("cluster-nodes", "1,3", "node counts for the cluster-router sweep (empty disables)")
	clusterRepl := flag.String("cluster-repl", "1,2", "hot-shard replication factors for the cluster sweep")
	clusterWorkers := flag.Int("cluster-workers", 8, "concurrent driver goroutines in the cluster sweep")
	clusterJSON := flag.String("cluster-json", "BENCH_cluster.json", "write the cluster sweep as JSON to this path (empty disables)")
	restart := flag.Bool("restart", true, "measure warm-restart hit-ratio recovery")
	restartJSON := flag.String("restart-json", "BENCH_restart.json", "write the restart sweep as JSON to this path (empty disables)")
	restartWarmOps := flag.Int("restart-warm-ops", 200_000, "operations warming each server before the restart measurement")
	overhead := flag.Bool("overhead", true, "measure telemetry overhead (live registry vs nil) through the cache facade")
	overheadOnly := flag.Bool("overhead-only", false, "run only the telemetry-overhead measurement")
	overheadOps := flag.Int("overhead-ops", 1_000_000, "operations per telemetry-overhead run")
	overheadMaxPct := flag.Float64("overhead-max-pct", 0, "exit nonzero when telemetry overhead exceeds this percentage (0 disables the gate)")
	herd := flag.Bool("herd", false, "run only the thundering-herd scenario matrix (synchronized hot-set expiry; modes off/jitter/coalesce/lease)")
	herdJSON := flag.String("herd-json", "BENCH_herd.json", "write the herd matrix as JSON to this path (empty disables)")
	herdHot := flag.Int("herd-hot", 1000, "hot-set size for the herd scenario")
	herdWorkers := flag.Int("herd-workers", 8, "concurrent sweep clients in the herd scenario")
	flag.Parse()

	if *herd {
		runHerd(*herdHot, *herdWorkers, *herdJSON)
		return
	}

	threads := parseInts("threads", *threadsFlag)
	shards := parseInts("shards", *shardsFlag)

	if *overheadOnly {
		*overhead = true
	}

	out := benchFile{
		Objects:      *objects,
		OpsPerThread: *ops,
		Note: "closed-loop Zipf α=1.0 replay (Fig. 8); latency percentiles " +
			"are sampled 1-in-16 ops and reported at log2-bucket resolution",
	}
	for _, large := range []bool{true, false} {
		if *overheadOnly {
			break
		}
		label, mode := "large cache (objects/10)", "large"
		if !large {
			label, mode = "small cache (objects/100)", "small"
		}
		fmt.Printf("==== Fig. 8 — %s ====\n", label)
		rows, err := harness.Fig8(harness.Fig8Config{
			Objects: *objects, OpsPerThread: *ops, Threads: threads,
			LargeCache: large, Shards: shards,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		fmt.Println("cache          threads  shards   Mops/s   hit-ratio      p50      p99     p999")
		for _, r := range rows {
			fmt.Printf("%-14s %7d  %6s  %7.2f  %.4f  %9v %8v %8v\n",
				r.Cache, r.Threads, shardLabel(r), r.Throughput(), r.HitRatio(),
				r.P50(), r.P99(), r.P999())
			out.Rows = append(out.Rows, benchRow{
				Cache: r.Cache, CacheMode: mode, Threads: r.Threads,
				Shards: r.Shards, Mops: r.Throughput(), HitRatio: r.HitRatio(),
				P50Ns: r.P50().Nanoseconds(), P99Ns: r.P99().Nanoseconds(),
				P999Ns: r.P999().Nanoseconds(),
			})
		}
		fmt.Println()
	}
	if *serverConns != "" && !*overheadOnly {
		protos := strings.Split(*protosFlag, ",")
		for i := range protos {
			protos[i] = strings.TrimSpace(protos[i])
		}
		fmt.Println("==== server end-to-end (TCP server, closed loop) ====")
		rows, err := harness.ServerSweep(harness.ServerSweepConfig{
			Objects: *serverObjects, Ops: *serverOps,
			Conns:  parseInts("server-conns", *serverConns),
			Protos: protos, PipelineDepth: *pipelineDepth,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		sweep := &serverSweep{
			Objects: *serverObjects, Ops: *serverOps, PipelineDepth: *pipelineDepth,
			Note: "get-or-set Zipf α=1.0 over loopback; capacity objects/10; " +
				"round-trip latency sampled 1-in-16; pipelined rows drive " +
				"pipeline_depth workers per connection",
		}
		fmt.Println("proto      conns   Kops/s   hit-ratio      p50      p99     p999")
		for _, r := range rows {
			fmt.Printf("%-10s %5d  %7.1f  %.4f  %9v %8v %8v\n",
				r.Proto, r.Conns, r.Kops(), r.HitRatio(), r.P50(), r.P99(), r.P999())
			sweep.Rows = append(sweep.Rows, serverRow{
				Proto: r.Proto, Conns: r.Conns, Kops: r.Kops(),
				HitRatio: r.HitRatio(),
				P50Ns:    r.P50().Nanoseconds(), P99Ns: r.P99().Nanoseconds(),
				P999Ns: r.P999().Nanoseconds(),
			})
		}
		out.Server = sweep
		fmt.Println()
	}
	if *openLoop && !*overheadOnly {
		fmt.Println("==== latency under offered load (open loop) ====")
		rows, err := harness.OpenLoop(harness.OpenLoopConfig{
			Objects:       *serverObjects,
			Rates:         parseInts("openloop-rates", *openLoopRates),
			Duration:      time.Duration(*openLoopSecs * float64(time.Second)),
			PipelineDepth: *pipelineDepth,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		section := &openLoopSection{
			Objects: *serverObjects, Conns: 4, PipelineDepth: *pipelineDepth,
			DurationSecs: *openLoopSecs,
			Note: "fixed arrival schedule; latency measured from scheduled arrival " +
				"(coordinated-omission-free), so overload shows as p99 blowup and " +
				"achieved < offered",
		}
		fmt.Println("proto       offered   achieved       p50       p99")
		for _, r := range rows {
			fmt.Printf("%-10s %8d  %9.0f  %8v  %8v\n",
				r.Proto, r.Rate, r.Achieved(), r.P50(), r.P99())
			section.Rows = append(section.Rows, openLoopRow{
				Proto: r.Proto, Rate: r.Rate, Achieved: r.Achieved(),
				P50Ns: r.P50().Nanoseconds(), P99Ns: r.P99().Nanoseconds(),
			})
		}
		out.OpenLoop = section
		fmt.Println()
	}
	if *clusterNodes != "" && !*overheadOnly {
		fmt.Println("==== cluster router (fixed total capacity, consistent hashing) ====")
		rows, err := harness.ClusterSweep(harness.ClusterSweepConfig{
			Objects:       *serverObjects,
			Ops:           *serverOps,
			NodeCounts:    parseInts("cluster-nodes", *clusterNodes),
			Replications:  parseInts("cluster-repl", *clusterRepl),
			Workers:       *clusterWorkers,
			PipelineDepth: *pipelineDepth,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		cf := clusterFile{
			Objects: *serverObjects, Ops: *serverOps,
			Workers: *clusterWorkers, PipelineDepth: *pipelineDepth,
			Note: "get-or-set Zipf α=1.0 through the cluster router over loopback; " +
				"total capacity objects/10 split evenly across nodes; R>1 replicates " +
				"sketch-detected hot keys; latency sampled 1-in-16",
		}
		fmt.Println("nodes   R   Kops/s   hit-ratio   hot-gets  repairs      p50      p99     p999")
		for _, r := range rows {
			fmt.Printf("%5d %3d  %7.1f  %.4f  %9d %8d  %8v %8v %8v\n",
				r.Nodes, r.Replication, r.Kops(), r.HitRatio(), r.HotGets,
				r.ReadRepairs, r.P50(), r.P99(), r.P999())
			cf.Rows = append(cf.Rows, clusterRow{
				Nodes: r.Nodes, Replication: r.Replication, Kops: r.Kops(),
				HitRatio: r.HitRatio(), HotGets: r.HotGets, ReadRepairs: r.ReadRepairs,
				P50Ns: r.P50().Nanoseconds(), P99Ns: r.P99().Nanoseconds(),
				P999Ns: r.P999().Nanoseconds(),
			})
		}
		fmt.Println()
		if *clusterJSON != "" {
			buf, err := json.MarshalIndent(cf, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "throughput:", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if err := os.WriteFile(*clusterJSON, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "throughput:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rows)\n", *clusterJSON, len(cf.Rows))
		}
	}
	if *restart && !*overheadOnly {
		fmt.Println("==== warm restarts (snapshot shutdown -> restore, first-window hit ratio) ====")
		r, err := harness.Restart(harness.RestartConfig{
			Objects: *serverObjects, WarmOps: *restartWarmOps,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		rf := restartFile{
			Objects: *serverObjects, WarmOps: *restartWarmOps, WindowOps: 20_000,
			Note: "get-or-set Zipf α=1.0 over loopback TCP; recovery = warm first-window " +
				"hit ratio / pre-shutdown steady window; cold row is the same window on an " +
				"empty cache (the outage warm restarts avoid)",
		}
		fmt.Println("steady     warm     cold  recovery  snapshot      save      load")
		fmt.Printf("%.4f   %.4f   %.4f    %5.1f%%  %7.1fK  %8v  %8v\n",
			r.SteadyHitRatio, r.WarmHitRatio, r.ColdHitRatio,
			r.Recovery()*100, float64(r.SnapshotBytes)/1e3, r.Save.Round(time.Millisecond),
			r.Load.Round(time.Millisecond))
		rf.Rows = append(rf.Rows, restartRow{
			SteadyHitRatio: r.SteadyHitRatio,
			WarmHitRatio:   r.WarmHitRatio, ColdHitRatio: r.ColdHitRatio,
			Recovery: r.Recovery(), SnapshotBytes: r.SnapshotBytes,
			SaveMs: float64(r.Save.Microseconds()) / 1e3,
			LoadMs: float64(r.Load.Microseconds()) / 1e3,
		})
		fmt.Println()
		if *restartJSON != "" {
			buf, err := json.MarshalIndent(rf, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "throughput:", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if err := os.WriteFile(*restartJSON, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "throughput:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rows)\n", *restartJSON, len(rf.Rows))
		}
	}
	if *overhead {
		fmt.Println("==== telemetry overhead (facade, 1 thread) ====")
		res, err := harness.TelemetryOverhead(harness.OverheadConfig{Ops: *overheadOps})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics off: %.2f Mops/s   metrics on: %.2f Mops/s   overhead: %.2f%%\n\n",
			res.BaseMops, res.MetricsMops, res.OverheadPct())
		out.Telemetry = &telemetrySection{
			Objects: res.Objects, Ops: res.Ops, Trials: res.Trials,
			Note: "closed-loop get-or-set through cache.New, " +
				"best of interleaved trials; nil registry vs live registry with the full cache_* catalog",
			BaseMops:    res.BaseMops,
			MetricsMops: res.MetricsMops,
			OverheadPct: res.OverheadPct(),
		}
		if *overheadMaxPct > 0 && res.OverheadPct() > *overheadMaxPct {
			fmt.Fprintf(os.Stderr, "throughput: telemetry overhead %.2f%% exceeds the %.1f%% budget\n",
				res.OverheadPct(), *overheadMaxPct)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *jsonPath, len(out.Rows))
	}
}

// herdFile is the BENCH_herd.json layout: the thundering-herd scenario
// matrix (internal/harness Herd), one row per serving mode.
type herdFile struct {
	HotKeys int                  `json:"hot_keys"`
	Workers int                  `json:"workers"`
	Note    string               `json:"note"`
	Rows    []harness.HerdResult `json:"rows"`
}

// runHerd sweeps the herd scenario across the serving modes: the naive
// baseline, TTL jitter alone (attacking the synchronized expiry), plain
// miss coalescing, and the full lease protocol.
func runHerd(hot, workers int, jsonPath string) {
	type variant struct {
		label  string
		mode   string
		jitter float64
	}
	variants := []variant{
		{"off", "off", 0},
		{"off+jitter", "off", 0.2},
		{"coalesce", "coalesce", 0},
		{"lease", "lease", 0},
	}
	out := herdFile{
		HotKeys: hot, Workers: workers,
		Note: "synchronized expiry of the hot set, swept by all workers at once over " +
			"loopback TCP (pipelined binary); amplification = backend fills of hot " +
			"keys / unique hot keys (1.0 = perfectly coalesced, workers = naive worst " +
			"case); missing-key probes show negative caching; background one-hit-wonder " +
			"and burst-scan traffic runs throughout; the jitter row demonstrates that " +
			"spreading TTLs attacks calendar-synchronized expiry but cannot reduce " +
			"amplification when clients demand the same keys at the same instant — " +
			"that takes coalescing or leases",
	}
	fmt.Println("==== thundering herd (synchronized hot-set expiry) ====")
	fmt.Println("mode         amplif.  hot-fills  stale-served  neg-hits  miss-probes/lookups  errors   elapsed")
	for _, v := range variants {
		r, err := harness.Herd(harness.HerdConfig{
			HotKeys: hot, Workers: workers, Mode: v.mode, TTLJitter: v.jitter,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		r.Mode = v.label
		fmt.Printf("%-12s %7.2f  %9d  %12d  %8d  %9d/%-9d  %6d  %8v\n",
			v.label, r.Amplification, r.HotFills, r.StaleServed, r.NegativeHits,
			r.MissingProbes, r.MissingLookups, r.ClientErrors,
			r.Elapsed.Round(time.Millisecond))
		out.Rows = append(out.Rows, r)
	}
	fmt.Println()
	if jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", jsonPath, len(out.Rows))
	}
}

func shardLabel(r concurrent.ReplayResult) string {
	if r.Shards == 0 {
		return "-"
	}
	return strconv.Itoa(r.Shards)
}
