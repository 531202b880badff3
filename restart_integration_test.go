package s3fifo

import (
	"testing"

	"s3fifo/internal/harness"
)

// TestWarmRestartRecovery is the warm-restart smoke test: after a
// snapshot save + restore cycle, the very first request window must
// recover at least 95% of the steady-state hit ratio — the paper's
// "restart without the re-warming outage" claim, asserted end-to-end over
// real TCP. A scaled-down run keeps it test-sized; the full-size numbers
// live in BENCH_restart.json.
func TestWarmRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("restart measurement needs a warmed server")
	}
	row, err := harness.Restart(harness.RestartConfig{
		Objects:   4000,
		WarmOps:   60_000,
		WindowOps: 8000,
		Dir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.SteadyHitRatio < 0.3 {
		t.Fatalf("steady-state hit ratio %.3f too low to measure recovery", row.SteadyHitRatio)
	}
	if rec := row.Recovery(); rec < 0.95 {
		t.Errorf("warm restart recovered %.1f%% of steady-state hit ratio (steady %.3f, warm %.3f), want >= 95%%",
			rec*100, row.SteadyHitRatio, row.WarmHitRatio)
	}
	// The warm window must also beat the cold restart it replaces, or
	// the snapshot machinery is dead weight.
	if row.WarmHitRatio <= row.ColdHitRatio {
		t.Errorf("warm window %.3f no better than cold restart %.3f",
			row.WarmHitRatio, row.ColdHitRatio)
	}
}
