package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPrometheusGolden pins the exposition format byte-for-byte:
// family ordering, series ordering, escaping, histogram cumulation.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	reads := r.Counter("atmem_tier_read_bytes_total", "Bytes read per tier.", Labels{"tier": "dram"})
	reads.Add(4096)
	reads.Add(512)
	r.Counter("atmem_tier_read_bytes_total", "Bytes read per tier.", Labels{"tier": "optane"}).Add(65536)
	r.Gauge("atmem_tier_occupancy_ratio", "Occupied fraction of tier capacity.", Labels{"tier": "dram"}).Set(0.75)
	r.Gauge("atmem_governor_breaker_state", "Breaker state (0 closed, 1 half-open, 2 open).", nil).Set(0)
	h := r.Histogram("atmem_epoch_phase_seconds", "Simulated phase wall time.", nil)
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	h.Observe(17)
	h.Observe(1 << 20)
	h.Observe(1 << 62) // beyond the finite buckets: +Inf only
	r.Counter("esc_total", `help with \ backslash`+"\nand newline", Labels{"path": `a"b\c`}).Inc()
	// Multi-tenant series: the broker attaches a "tenant" label to every
	// family of a tenant runtime. Label keys render alphabetically
	// ("tenant" < "tier"), and series within a family order by their
	// canonical label string — pin both.
	r.Counter("atmem_tier_write_bytes_total", "Bytes written per tier.", Labels{"tenant": "analytics", "tier": "dram"}).Add(128)
	r.Counter("atmem_tier_write_bytes_total", "Bytes written per tier.", Labels{"tenant": "batch", "tier": "dram"}).Add(256)
	r.Counter("atmem_tier_write_bytes_total", "Bytes written per tier.", Labels{"tenant": "analytics", "tier": "optane"}).Add(64)
	r.Gauge("atmem_scorecard_fast_access_share", "Fraction of traffic served fast.", Labels{"tenant": "analytics"}).Set(0.875)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	// The output must be stable across repeated renders (map iteration
	// must not leak into the format).
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}
