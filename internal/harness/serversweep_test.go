package harness

import (
	"testing"
	"time"
)

// TestServerSweepProtos runs a miniature sweep across all three protocol
// modes: the harness must produce a row per (proto, conns) cell
// with sane counters.
func TestServerSweepProtos(t *testing.T) {
	rows, err := ServerSweep(ServerSweepConfig{
		Objects:       500,
		Ops:           4_000,
		Conns:         []int{2},
		Protos:        []string{"text", "binary", "pipelined"},
		PipelineDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Proto] = true
		if r.Ops == 0 || r.Elapsed <= 0 {
			t.Errorf("%s: empty measurement: %+v", r.Proto, r)
		}
		if r.HitRatio() <= 0 {
			t.Errorf("%s: hit ratio %f, want > 0 after warmup", r.Proto, r.HitRatio())
		}
	}
	for _, p := range []string{"text", "binary", "pipelined"} {
		if !seen[p] {
			t.Errorf("no row for proto %s", p)
		}
	}
}

func TestServerSweepRejectsUnknownProto(t *testing.T) {
	_, err := ServerSweep(ServerSweepConfig{
		Objects: 100, Ops: 100, Conns: []int{1},
		Protos: []string{"telepathy"},
	})
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestOpenLoopSmoke runs one tiny fixed-rate point per protocol.
func TestOpenLoopSmoke(t *testing.T) {
	rows, err := OpenLoop(OpenLoopConfig{
		Objects:       500,
		Protos:        []string{"text", "pipelined"},
		Rates:         []int{2_000},
		Duration:      300 * time.Millisecond,
		Conns:         2,
		PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Ops == 0 || r.Achieved() <= 0 {
			t.Errorf("%s@%d: empty measurement: %+v", r.Proto, r.Rate, r)
		}
		if r.P99() <= 0 {
			t.Errorf("%s@%d: no latency recorded", r.Proto, r.Rate)
		}
	}
}
