// Blockcache: a page cache over a simulated disk, running a block-storage
// workload with background scans — the scenario where scan resistance
// decides cache efficiency (§3.2).
//
//	go run ./examples/blockcache
//
// A database-like reader mixes hot-page lookups with full-table scans.
// The same workload runs against LRU, CLOCK, and S3-FIFO page caches in
// the trace simulator (internal/sim, where the paper's baselines live);
// the example reports hit ratios and simulated disk time, showing the
// scan flushing LRU's working set while S3-FIFO's small queue absorbs it.
package main

import (
	"fmt"
	"log"
	"time"

	"s3fifo/internal/sim"
	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

const diskReadCost = 100 * time.Microsecond // simulated seek+read per block

// disk is the simulated block device.
type disk struct {
	reads int
}

func (d *disk) read(block uint64) {
	d.reads++
}

// run replays tr through a page cache of one tenth of the footprint's
// blocks, every block one slot, reading each miss from the disk.
func run(policy string, tr trace.Trace) {
	d := &disk{}
	c, err := sim.NewPolicy(policy, uint64(tr.UniqueObjects()/10), tr)
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, r := range tr {
		if c.Request(r.ID, 1) {
			hits++
			continue
		}
		d.read(r.ID)
	}
	hitRatio := float64(hits) / float64(len(tr))
	diskTime := time.Duration(d.reads) * diskReadCost
	fmt.Printf("%-8s hit ratio %.3f   disk reads %7d   simulated disk time %8v\n",
		policy, hitRatio, d.reads, diskTime.Round(time.Millisecond))
}

func main() {
	// An MSR-like block workload: skewed hot pages plus scans and loops.
	msr, ok := workload.ProfileByName("msr")
	if !ok {
		log.Fatal("msr profile missing")
	}
	tr := msr.Generate(0, 0.05)
	fmt.Printf("block workload: %d reads over %d distinct blocks (scan-polluted)\n\n",
		len(tr), tr.UniqueObjects())
	for _, policy := range []string{"lru", "clock", "s3fifo"} {
		run(policy, tr)
	}
	fmt.Println("\nthe scans stream one-time blocks through the cache; S3-FIFO")
	fmt.Println("demotes them from its small queue before they displace hot pages.")
}
