package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/telemetry"
)

// TestTelemetrySmoke is the end-to-end telemetry check (also CI's
// telemetry smoke step): one full profile→optimize→run cycle with
// tracing and fault injection on must emit a parseable, non-empty
// Chrome trace whose migration and fault events reconcile exactly with
// the run's MigrationReport and fault count. Set ATMEM_TELEMETRY_OUT to
// a directory to keep the artifacts (CI uploads them).
func TestTelemetrySmoke(t *testing.T) {
	dir := os.Getenv("ATMEM_TELEMETRY_OUT")
	if dir == "" {
		dir = t.TempDir()
	}
	res, err := Run(RunConfig{
		Testbed: NVM, App: "pr", Dataset: "pokec", Policy: ATMem,
		FaultSchedule: &faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Nth: 1},
		}},
		FaultLabel: "smoke-staging-nth1",
		TraceDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePath == "" {
		t.Fatal("no trace written")
	}
	if res.FaultEvents != 1 {
		t.Fatalf("FaultEvents = %d, want 1 (nth-call rule fires once)", res.FaultEvents)
	}

	f, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace parsed but is empty")
	}

	count := func(cat, name string) int {
		n := 0
		for _, e := range events {
			if (cat == "" || e.Cat == cat) && (name == "" || e.Name == name) {
				n++
			}
		}
		return n
	}

	// The per-region terminal events partition the regions exactly as
	// the MigrationReport counters do.
	rep := res.Migration
	if got := count("migrate", "region-migrated"); got != rep.RegionsMigrated {
		t.Errorf("region-migrated events %d != RegionsMigrated %d", got, rep.RegionsMigrated)
	}
	if got := count("migrate", "region-retried"); got != rep.RegionsRetried {
		t.Errorf("region-retried events %d != RegionsRetried %d", got, rep.RegionsRetried)
	}
	if got := count("migrate", "region-skipped"); got != rep.RegionsSkipped {
		t.Errorf("region-skipped events %d != RegionsSkipped %d", got, rep.RegionsSkipped)
	}
	if rep.RegionsRetried == 0 {
		t.Error("injected staging fault did not produce a retried region")
	}
	// Every rollback pairs with a failed attempt; the injected Reserve
	// fault must therefore surface at least one of each.
	if count("migrate", "region-rollback") == 0 {
		t.Error("no rollback events despite an injected staging fault")
	}
	// Fault events in the trace correspond one-to-one with what the
	// injector fired.
	if got := count("fault", ""); got != res.FaultEvents {
		t.Errorf("fault events in trace %d != injector count %d", got, res.FaultEvents)
	}
	// The control-plane structure made it into the trace.
	for _, want := range []struct{ cat, name string }{
		{"phase", ""}, {"profile", "window"}, {"optimize", "optimize"},
		{"analyze", "rank"}, {"analyze", "threshold"},
		{"analyze", "promote"}, {"analyze", "clip"},
		{"metric", "tier-occupancy"},
	} {
		if count(want.cat, want.name) == 0 {
			t.Errorf("trace missing %s/%s events", want.cat, want.name)
		}
	}

	// Companion artifacts exist and are non-empty.
	stem := strings.TrimSuffix(res.TracePath, ".trace.json")
	for _, suffix := range []string{".timeline.csv", ".heat.csv"} {
		st, err := os.Stat(stem + suffix)
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", stem+suffix)
		}
	}
}

// TestSuiteTraceDir checks the suite-level trace plumbing used by
// `atmem-bench -trace`.
func TestSuiteTraceDir(t *testing.T) {
	s := NewSuite()
	s.TraceDir = t.TempDir()
	res, err := s.Run(RunConfig{Testbed: NVM, App: "bfs", Dataset: "pokec", Policy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePath == "" {
		t.Fatal("suite TraceDir did not produce a trace")
	}
	if filepath.Dir(res.TracePath) != s.TraceDir {
		t.Errorf("trace written to %s, want dir %s", res.TracePath, s.TraceDir)
	}
	if _, err := os.Stat(res.TracePath); err != nil {
		t.Error(err)
	}
}
