package sim_test

import (
	"fmt"

	"s3fifo/internal/sim"
	"s3fifo/internal/workload"
)

// Any algorithm from the paper's evaluation replays the same trace: here
// S3-FIFO and three baselines on a Zipf trace where a quarter of the
// requests are one-hit wonders, at a cache of a tenth of the footprint.
func ExampleCompare_policySelection() {
	tr := workload.Generate(workload.Config{
		Objects: 10000, Requests: 100000, Alpha: 1.0, OneHitFraction: 0.25,
	}, 1)
	results, err := sim.Compare([]string{"s3fifo", "lru", "arc", "tinylfu"}, 1000, tr)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s %.3f\n", r.Algorithm, r.MissRatio())
	}
	// Output:
	// s3fifo 0.463
	// lru 0.546
	// arc 0.461
	// tinylfu 0.475
}
