// Quickstart: the one-minute tour of the public cache API.
//
//	go run ./examples/quickstart
//
// It creates an S3-FIFO cache, exercises Get/Set/Delete, shows the stats
// counters, and compares S3-FIFO with LRU in the trace simulator, where
// the paper's baseline algorithms run.
package main

import (
	"fmt"
	"log"

	"s3fifo/cache"
	"s3fifo/internal/sim"
	"s3fifo/internal/workload"
)

func main() {
	// A 1 MiB cache using the paper's S3-FIFO eviction.
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}

	// Basic operations.
	c.Set("greeting", []byte("hello, cache"))
	if v, ok := c.Get("greeting"); ok {
		fmt.Printf("greeting = %q\n", v)
	}
	c.Delete("greeting")
	if _, ok := c.Get("greeting"); !ok {
		fmt.Println("greeting deleted")
	}

	// Fill beyond capacity: S3-FIFO's small queue filters one-hit wonders
	// while the repeatedly-read working set survives in the main queue.
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("hot-%03d", i)
			if _, ok := c.Get(key); !ok {
				c.Set(key, make([]byte, 512))
			}
		}
	}
	for i := 0; i < 5000; i++ {
		c.Set(fmt.Sprintf("one-hit-%05d", i), make([]byte, 512))
	}
	hot := 0
	for i := 0; i < 200; i++ {
		if c.Contains(fmt.Sprintf("hot-%03d", i)) {
			hot++
		}
	}
	st := c.Stats()
	fmt.Printf("after churn: %d/200 hot keys still cached, %d entries total\n", hot, c.Len())
	fmt.Printf("stats: %d hits, %d misses, %d evictions (hit ratio %.2f)\n",
		st.Hits, st.Misses, st.Evictions, st.HitRatio())

	// The baselines from the paper's evaluation run in the simulator:
	// replay one Zipf trace, a quarter of it one-hit wonders, through
	// S3-FIFO and LRU at a cache of a tenth of the footprint.
	fmt.Printf("\nsimulated algorithms: %v\n", sim.Algorithms())
	tr := workload.Generate(workload.Config{
		Objects: 10000, Requests: 100000, Alpha: 1.0, OneHitFraction: 0.25,
	}, 1)
	results, err := sim.Compare([]string{"s3fifo", "lru"}, 1000, tr)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-6s miss ratio %.3f\n", r.Algorithm, r.MissRatio())
	}
}
