package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scriptedEvents drives a recorder through one miniature
// profile→analyze→migrate cycle with fully deterministic clocks, the
// fixture behind the exporter golden files.
func scriptedEvents() []Event {
	r, sim := scriptedRecorder()

	r.Begin("profile", "window", Args{"period": 64})
	r.Begin("phase", "iter0", nil)
	*sim = 2_000_000
	r.End("phase", "iter0", Args{"wall_s": 0.002})
	r.End("profile", "window", Args{"samples_attributed": 128})
	r.Instant("profile", "heat", Args{"object": "ranks", "hot_chunks": 3})

	r.Begin("optimize", "optimize", nil)
	r.Begin("analyze", "rank", nil)
	r.End("analyze", "rank", Args{"objects": 2, "sampled_chunks": 5})
	r.InstantAt(2_100_000, "migrate", "region-attempt",
		Args{"base": 65536, "bytes": 4096, "attempt": 1})
	r.InstantAt(2_200_000, "migrate", "region-migrated",
		Args{"base": 65536, "bytes": 4096, "attempt": 1})
	r.Instant("fault", "Reserve", Args{"call": 1, "rule": 0})
	*sim = 2_500_000
	r.End("optimize", "optimize", Args{"bytes_moved": 4096, "regions_migrated": 1})

	r.Begin("phase", "iter1", nil)
	*sim = 3_000_000
	r.Instant("kernel", "tick", nil)
	r.End("phase", "iter1", Args{"wall_s": 0.0005})
	r.Counter("metric", "tier-occupancy", Args{"fast_mapped": 4096, "slow_mapped": 61440})
	return r.Events()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; diff the output or re-run with -update\ngot:\n%s", name, got)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, scriptedEvents()); err != nil {
		t.Fatal(err)
	}
	// The trace must be valid JSON with the Chrome trace shape before
	// it is compared byte-for-byte.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	checkGolden(t, "trace.golden.json", buf.Bytes())
}

func TestCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, scriptedEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.golden.csv", buf.Bytes())
}

func TestChromeTraceRoundTrip(t *testing.T) {
	events := scriptedEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(back), len(events))
	}
	for i := range events {
		want, got := events[i], back[i]
		if got.Cat != want.Cat || got.Name != want.Name || got.Ph != want.Ph {
			t.Fatalf("event %d identity drifted: got %+v want %+v", i, got, want)
		}
		if got.SimNS != want.SimNS {
			t.Fatalf("event %d SimNS %d, want %d", i, got.SimNS, want.SimNS)
		}
		if got.HostNS != want.HostNS {
			t.Fatalf("event %d HostNS %d, want %d", i, got.HostNS, want.HostNS)
		}
	}
	// Span nesting must survive the round trip too.
	depth := 0
	for _, e := range back {
		switch e.Ph {
		case PhaseBegin:
			depth++
		case PhaseEnd:
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced End at %s/%s", e.Cat, e.Name)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("%d unclosed spans after round trip", depth)
	}
}

func TestTimelineRenders(t *testing.T) {
	events := scriptedEvents()
	var text, md bytes.Buffer
	if err := WriteTimelineText(&text, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineMarkdown(&md, events); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimize/optimize", "migrate/region-migrated", "fault/Reserve"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Errorf("text timeline missing %q", want)
		}
		if !bytes.Contains(md.Bytes(), []byte(want)) {
			t.Errorf("markdown timeline missing %q", want)
		}
	}
}
