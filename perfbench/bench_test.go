package main

import (
	"testing"
	"time"
)

// testShape is a scaled-down shape that still runs every layer of every
// workload: the rotation, the departure halfway and several replays.
var testShape = shape{
	rmatScale: 12, iters: 2,
	vertices: 1024, epochs: 12, rotate: 2, record: 6, shiftMiB: 4,
	tenantVertices: 1024, rounds: 4, tenantMiB: 4,
}

func digestOf(t *testing.T, w workload, seed uint64, traced bool) string {
	t.Helper()
	p := newPass(seed, traced)
	if err := runPass(w, testShape, p); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	for _, f := range p.failures {
		t.Errorf("%s seed %d: %s", w.name, seed, f)
	}
	if p.attempted == 0 || p.simSeconds <= 0 || p.phaseSeconds <= 0 || p.speedup <= 0 {
		t.Errorf("%s seed %d: attempted %d, kernel sim %g s of %g s, speedup %g", w.name, seed, p.attempted, p.phaseSeconds, p.simSeconds, p.speedup)
	}
	return p.sum()
}

// TestDigestRepeats checks that a seed's digest repeats exactly, traced
// or not, and that another seed's differs.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := digestOf(t, w, 1, false)
			if b := digestOf(t, w, 1, true); b != a {
				t.Errorf("seed 1 digests differ: %s untraced, %s traced", a, b)
			}
			if c := digestOf(t, w, 2, false); c == a {
				t.Errorf("seeds 1 and 2 share digest %s", a)
			}
		})
	}
}

// TestRunReportsEveryMetric checks one short run end to end: every
// end-to-end metric is present and non-zero, and a traced run reports
// every layer's self time.
func TestRunReportsEveryMetric(t *testing.T) {
	w, _ := findWorkload("epoch-shift")
	r := runWorkload(w, testShape, 3, time.Millisecond, true)
	if fails := r.failures(); len(fails) > 0 {
		t.Fatalf("failures: %v", fails)
	}
	for name, m := range r.endToEnd() {
		if m.Value <= 0 {
			t.Errorf("%s = %g %s, want > 0", name, m.Value, m.Unit)
		}
	}
	lm := r.layerMetrics()
	for _, layer := range []string{layerGraph, layerApps, layerMemsim, layerPlace} {
		if m := lm[layer+".self_s"]; m.Value <= 0 {
			t.Errorf("%s.self_s = %g, want > 0", layer, m.Value)
		}
	}
	if u := lm["trace.unattributed_ratio"].Value; u < 0 || u > 0.5 {
		t.Errorf("trace.unattributed_ratio = %g", u)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}
