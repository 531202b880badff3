package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmokeEveryMetric runs each workload briefly, plain and traced, and
// checks that it is correct and reports every catalogued metric with its
// unit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, options{seed: 7, seconds: 1, trace: traced, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, got, d.unit)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptValueIsCaught writes wrong values through the server's cache
// in the middle of a serve-hot run: another key's bytes under five hot
// keys and a flipped payload byte under five more. The run must count
// them as failures, and the Sets the workload did not make must break the
// reconciliation with the cache's counters.
func TestCorruptValueIsCaught(t *testing.T) {
	in := genHot(3)
	env, err := setupHot(in, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	const d = time.Second
	p := newPhase(d, hotConns, hotValue, false)
	var pos atomic.Uint64
	before := env.cache.Stats()
	done := make(chan struct{})
	go func() {
		env.closedLoop(in, p, d, &pos)
		close(done)
	}()
	time.Sleep(d / 3)
	for id := uint64(0); id < 10; id++ {
		v := newValue(hotValue, id, 1<<40)
		if id < 5 {
			v = newValue(hotValue, id+100, 1<<40)
		} else {
			v[valueHeader] ^= 0xff
		}
		env.srv.Cache().Set(in.keys[id], v)
	}
	<-done
	after := env.cache.Stats()
	tl := p.tally()
	if tl.wrongKey == 0 || tl.torn == 0 {
		t.Errorf("corruption not detected: wrong_key=%d torn=%d", tl.wrongKey, tl.torn)
	}
	if tl.failed() == 0 {
		t.Error("run reports no failures")
	}
	if len(reconcile(&tl, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)) == 0 {
		t.Error("reconciliation passed despite Sets the workload did not make")
	}
}

func TestValueCheck(t *testing.T) {
	v := newValue(200, 42, 9)
	if got := checkValue(v, 42, 200); got != valueOK {
		t.Fatalf("fresh value: verdict %d", got)
	}
	if got := checkValue(v, 43, 200); got != valueWrongKey {
		t.Errorf("other key: verdict %d", got)
	}
	if got := checkValue(v[:199], 42, 200); got != valueWrongLen {
		t.Errorf("short value: verdict %d", got)
	}
	torn := append(newValue(200, 42, 9)[:100:100], newValue(200, 42, 10)[100:]...)
	if got := checkValue(torn, 42, 200); got != valueTorn {
		t.Errorf("stitched value: verdict %d", got)
	}
	if k := keyOf(1234567); k != "k000000001234567" || len(k) != keyLen {
		t.Errorf("keyOf(1234567) = %q", k)
	}
}

// TestHistResolution checks the histogram's quantiles against exact ones
// to within 1 %.
func TestHistResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = math.Exp(rng.Float64()*16) + 1 // 1 ns .. ~9 ms
		h.record(time.Duration(xs[i]))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := quantileExact(xs, q)
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f: hist %v, exact %v", q, got, exact)
		}
	}
	if top := h.topQuantile(); math.Abs(top-0.9999) > 1e-9 {
		t.Errorf("topQuantile = %v, want 0.9999", top)
	}
}

func quantileExact(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		s[i] = math.Floor(s[i])
	}
	sortFloats(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

func sortFloats(s []float64) { sort.Float64s(s) }

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue and the
// repository's BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), perfbench %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestMedianQuantileGroupsSparseWindows checks that windows too sparse
// for a percentile are merged before it is read.
func TestMedianQuantileGroupsSparseWindows(t *testing.T) {
	w := &windowed{width: time.Second, wins: make([]hist, 10)}
	start := time.Now()
	w.start = start
	for i := range w.wins {
		for j := 0; j < 1000; j++ {
			d := time.Duration(j+1) * time.Microsecond // 1..1000 us in every window
			w.record(start.Add(time.Duration(i)*time.Second), d)
		}
	}
	// p99 needs 5000 samples per group: five windows each, two groups.
	if got, want := w.medianQuantile(0.99), 990e3; math.Abs(got-want)/want > 0.01 {
		t.Errorf("p99 = %v ns, want ~%v", got, want)
	}
	if got, want := w.medianQuantile(0.5), 500e3; math.Abs(got-want)/want > 0.01 {
		t.Errorf("p50 = %v ns, want ~%v", got, want)
	}
}
