package harness

import (
	"fmt"
	"net"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/cluster"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// ClusterSweepConfig parameterizes the cluster-mode comparison: the same
// closed-loop get-or-set Zipf workload as ServerSweep, but driven
// through the cluster router over 1..N in-process s3cached nodes. The
// TOTAL cache capacity is held fixed (objects/10 worth of entries, the
// Fig8 "large cache" regime) and split evenly across the nodes, so the
// sweep isolates the cost and benefit of distribution itself: routing
// overhead, per-node connection parallelism, and — with Replication > 1
// — the write amplification and read fan-out of replicated hot shards.
type ClusterSweepConfig struct {
	// Objects is the number of distinct keys (default 20_000).
	Objects int
	// Ops is the total operation count per measurement (default 200_000).
	Ops int
	// NodeCounts is the cluster sizes to sweep (default 1, 3).
	NodeCounts []int
	// Replications is the hot-shard replication factors to sweep
	// (default 1, 2). Factors above a row's node count are skipped.
	Replications []int
	// Workers is the number of concurrent driver goroutines (default 8;
	// the router multiplexes them over one pipelined conn per node).
	Workers int
	// ValueBytes is the payload size (default 64).
	ValueBytes int
	// PipelineDepth is the per-node in-flight window (default 32).
	PipelineDepth int
}

func (c ClusterSweepConfig) withDefaults() ClusterSweepConfig {
	if c.Objects <= 0 {
		c.Objects = 20_000
	}
	if c.Ops <= 0 {
		c.Ops = 200_000
	}
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 3}
	}
	if len(c.Replications) == 0 {
		c.Replications = []int{1, 2}
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	return c
}

// ClusterSweepRow is one (nodes, replication) measurement.
type ClusterSweepRow struct {
	Nodes       int
	Replication int
	Ops         uint64
	Hits        uint64
	Elapsed     time.Duration
	HotGets     uint64 // reads that fanned out to replicas
	ReadRepairs uint64
	// Latency holds sampled per-request round-trip latencies (1 in 16).
	Latency telemetry.Histogram
}

// Kops returns thousand operations per second.
func (r ClusterSweepRow) Kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e3
}

// HitRatio returns the measured hit ratio.
func (r ClusterSweepRow) HitRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ops)
}

// P50 returns the sampled median round-trip latency.
func (r ClusterSweepRow) P50() time.Duration { return r.Latency.Quantile(0.50) }

// P99 returns the sampled 99th-percentile round-trip latency.
func (r ClusterSweepRow) P99() time.Duration { return r.Latency.Quantile(0.99) }

// P999 returns the sampled 99.9th-percentile round-trip latency.
func (r ClusterSweepRow) P999() time.Duration { return r.Latency.Quantile(0.999) }

// ClusterSweep measures closed-loop get-or-set throughput through the
// cluster router for every (nodes, replication) pair.
func ClusterSweep(cfg ClusterSweepConfig) ([]ClusterSweepRow, error) {
	cfg = cfg.withDefaults()
	w := concurrent.NewZipfWorkload(cfg.Objects, cfg.Ops, 1.0, cfg.ValueBytes, 42)
	entryBytes := 16 + cfg.ValueBytes
	totalCapacity := uint64(cfg.Objects/10) * uint64(entryBytes)
	var out []ClusterSweepRow
	for _, nodes := range cfg.NodeCounts {
		for _, repl := range cfg.Replications {
			if repl > nodes {
				continue // R replicas need R nodes
			}
			row, err := clusterSweepOne(cfg, nodes, repl, totalCapacity, w)
			if err != nil {
				return nil, fmt.Errorf("harness: cluster %d nodes, R=%d: %w", nodes, repl, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func clusterSweepOne(cfg ClusterSweepConfig, nodes, repl int, totalCapacity uint64, w *concurrent.Workload) (ClusterSweepRow, error) {
	addrs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		c, err := cache.New(cache.Config{MaxBytes: totalCapacity / uint64(nodes)})
		if err != nil {
			return ClusterSweepRow{}, err
		}
		srv := server.New(c)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ClusterSweepRow{}, err
		}
		defer srv.Close()
		go srv.Serve(l)
		addrs[i] = l.Addr().String()
	}
	router, err := cluster.New(cluster.Options{
		Nodes:       addrs,
		Replication: repl,
		Client:      client.Options{Pipeline: cfg.PipelineDepth},
	})
	if err != nil {
		return ClusterSweepRow{}, err
	}
	defer router.Close()

	// Warm with a serial replay of the first half of the trace, as in
	// ServerSweep, so the measurement starts from a steady state.
	for _, k := range w.Keys[:len(w.Keys)/2] {
		key := fmt.Sprintf("%016x", k)
		if _, ok, err := router.Get(key); err != nil {
			return ClusterSweepRow{}, err
		} else if !ok {
			if _, err := router.Set(key, w.Value); err != nil {
				return ClusterSweepRow{}, err
			}
		}
	}

	type result struct {
		hits uint64
		lat  telemetry.Histogram
		err  error
	}
	results := make(chan result, cfg.Workers)
	per := len(w.Keys) / cfg.Workers
	start := time.Now()
	for i := 0; i < cfg.Workers; i++ {
		keys := w.Keys[i*per : (i+1)*per]
		go func(keys []uint64) {
			var res result
			for j, k := range keys {
				key := fmt.Sprintf("%016x", k)
				sample := j&15 == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				_, ok, err := router.Get(key)
				if err != nil {
					res.err = err
					break
				}
				if ok {
					res.hits++
				} else if _, err := router.Set(key, w.Value); err != nil {
					res.err = err
					break
				}
				if sample {
					res.lat.Observe(time.Since(t0))
				}
			}
			results <- res
		}(keys)
	}
	row := ClusterSweepRow{Nodes: nodes, Replication: repl, Ops: uint64(per * cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		res := <-results
		if res.err != nil {
			return ClusterSweepRow{}, res.err
		}
		row.Hits += res.hits
		row.Latency.Merge(&res.lat)
	}
	row.Elapsed = time.Since(start)
	st := router.Stats()
	row.HotGets = st.HotGets
	row.ReadRepairs = st.ReadRepairs
	return row, nil
}
