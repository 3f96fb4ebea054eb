package metrics

import (
	"math/bits"
	"sync"
	"testing"
)

func TestCounterAddAndInc(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "x", nil)
	c.Add(5)
	c.Add(7)
	c.Inc()
	if got := c.Value(); got != 13 {
		t.Fatalf("Value = %d, want 13", got)
	}
}

func TestRegistryResolvesSameSeries(t *testing.T) {
	r := New()
	a := r.Counter("dup_total", "dup", Labels{"tier": "dram"})
	b := r.Counter("dup_total", "dup", Labels{"tier": "dram"})
	if a != b {
		t.Fatal("same (name, labels) did not resolve to the same counter")
	}
	other := r.Counter("dup_total", "dup", Labels{"tier": "optane"})
	if other == a {
		t.Fatal("different labels resolved to the same counter")
	}
	a.Add(3)
	b.Add(2)
	if a.Value() != 5 {
		t.Fatalf("shared series Value = %d, want 5", a.Value())
	}
	// A type conflict yields a disabled instrument, not a crash or a
	// silently detached series.
	if g := r.Gauge("dup_total", "dup", nil); g != nil {
		t.Fatal("type-conflicting registration returned a live gauge")
	}
}

func TestGaugeSetAndValue(t *testing.T) {
	r := New()
	g := r.Gauge("level", "level", nil)
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("Value = %g, want 0.25", g.Value())
	}
	g.SetUint(1 << 40)
	if g.Value() != float64(uint64(1)<<40) {
		t.Fatalf("SetUint round-trip failed: %g", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	// Every value must land in a bucket whose bound is >= the value and
	// whose predecessor's bound is < the value.
	for _, v := range []uint64{0, 1, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		if ub := bucketUpperBound(i); ub < v {
			t.Fatalf("value %d: bucket %d bound %d < value", v, i, ub)
		}
		if i > 0 {
			if lb := bucketUpperBound(i - 1); lb >= v {
				t.Fatalf("value %d: previous bucket bound %d >= value", v, lb)
			}
		}
	}
	// Bounds are strictly increasing (cumulative exposition depends on it).
	for i := 1; i < histBuckets; i++ {
		if bucketUpperBound(i) <= bucketUpperBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d",
				i, bucketUpperBound(i), bucketUpperBound(i-1))
		}
	}
	// Relative resolution stays within one sub-bucket (~25%).
	for _, v := range []uint64{10, 1000, 1e6, 1e9, 1e12} {
		ub := bucketUpperBound(bucketIndex(v))
		if float64(ub-v) > 0.25*float64(v)+1 {
			t.Fatalf("value %d: bound %d overshoots by more than 25%%", v, ub)
		}
	}
	_ = bits.Len64 // keep the import honest if the test shrinks
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns", "latency", nil)
	for _, v := range []uint64{1, 1, 5, 5, 5, 1000} {
		h.Observe(v)
	}
	h.ObserveSeconds(2e-6) // 2000 ns
	hs := h.snapshot()
	if hs.Count != 7 {
		t.Fatalf("Count = %d, want 7", hs.Count)
	}
	if hs.Sum != 1+1+5+5+5+1000+2000 {
		t.Fatalf("Sum = %d", hs.Sum)
	}
	var total uint64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, hs.Count)
	}
	// A value beyond the largest finite bucket still counts and sums.
	h.Observe(1 << 60)
	if h.Count() != 8 {
		t.Fatalf("overflow observation lost: count %d", h.Count())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "ops", nil)
	g := r.Gauge("level", "level", nil)
	h := r.Histogram("lat_ns", "latency", nil)
	c.Add(10)
	g.Set(1)
	h.Observe(5)
	before := r.Snapshot()
	c.Add(4)
	g.Set(9)
	h.Observe(5)
	h.Observe(700)
	d := r.Snapshot().Delta(before)
	if d.Counters["ops_total"] != 4 {
		t.Fatalf("counter delta = %d, want 4", d.Counters["ops_total"])
	}
	if d.Gauges["level"] != 9 {
		t.Fatalf("gauge in delta = %g, want current value 9", d.Gauges["level"])
	}
	dh := d.Histograms["lat_ns"]
	if dh.Count != 2 {
		t.Fatalf("histogram delta count = %d, want 2", dh.Count)
	}
	if dh.Sum != 705 {
		t.Fatalf("histogram delta sum = %d, want 705", dh.Sum)
	}
	var total uint64
	for _, b := range dh.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Fatalf("histogram delta buckets sum to %d, want 2", total)
	}
}

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry claims enabled")
	}
	c := r.Counter("x_total", "x", nil)
	g := r.Gauge("y", "y", nil)
	h := r.Histogram("z_ns", "z", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	// Every record and read path must be inert, not crash.
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.SetUint(2)
	h.Observe(1)
	h.ObserveSeconds(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("disabled instruments reported non-zero values")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestConcurrentRecordAndSnapshot is the -race guard for the scrape
// path: concurrent counter writers, a histogram and gauge writer, and a
// concurrent snapshotter + exposition writer must be data-race free,
// and no increments may be lost.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := New()
	c := r.Counter("ops_total", "ops", nil)
	g := r.Gauge("level", "level", nil)
	h := r.Histogram("lat_ns", "latency", nil)
	var wg sync.WaitGroup
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(uint64(i))
				if s == 0 {
					g.Set(float64(i))
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := r.Snapshot()
			if snap.Counters["ops_total"] > writers*perWriter {
				t.Errorf("snapshot over-counted: %d", snap.Counters["ops_total"])
				return
			}
			if err := r.WritePrometheus(discard{}); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("lost increments: %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("lost observations: %d, want %d", got, writers*perWriter)
	}
}

// BenchmarkDisabledMetrics is the CI guard for the disabled fast path:
// a record site on a nil instrument must cost ~one predictable branch
// (≤ a few ns for the three calls together, allocation-free) — the
// price every instrumented layer pays when metrics are off.
func BenchmarkDisabledMetrics(b *testing.B) {
	var r *Registry
	c := r.Counter("x_total", "x", nil)
	g := r.Gauge("y", "y", nil)
	h := r.Histogram("z_ns", "z", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(1)
		h.Observe(uint64(i))
	}
}

// BenchmarkEnabledCounter sizes the hot cost of one recorded increment.
func BenchmarkEnabledCounter(b *testing.B) {
	r := New()
	c := r.Counter("x_total", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledHistogram sizes the hot cost of one observation.
func BenchmarkEnabledHistogram(b *testing.B) {
	r := New()
	h := r.Histogram("z_ns", "z", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
