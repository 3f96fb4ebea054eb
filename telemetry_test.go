package atmem

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/telemetry"
)

// runTracedCycle executes one full profile→optimize→run session with a
// recorder attached and returns the runtime and report.
func runTracedCycle(t *testing.T, sched *faultinject.Schedule) (*Runtime, MigrationReport) {
	t.Helper()
	rec := telemetry.NewRecorder()
	opts := []Option{WithTelemetry(rec)}
	if sched != nil {
		opts = append(opts, WithFaultSchedule(*sched))
	}
	rt, err := New(NVMDRAM(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewArray[uint64](rt, "cold", 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	phase := func(name string) {
		rt.RunPhase(name, func(c *Ctx) {
			lo, hi := c.Range(hot.Len())
			for rep := 0; rep < 8; rep++ {
				for i := lo; i < hi; i++ {
					hot.Load(c, (i*7919)%hot.Len())
				}
			}
			clo, chi := c.Range(cold.Len())
			for i := clo; i < chi; i++ {
				cold.Load(c, (i*104729)%cold.Len())
			}
		})
	}
	rt.ProfilingStart()
	phase("profile")
	if n := rt.ProfilingStop(); n == 0 {
		t.Fatal("no samples attributed")
	}
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	phase("after")
	return rt, rep
}

func TestTelemetryLifecycle(t *testing.T) {
	rt, rep := runTracedCycle(t, nil)
	rec := rt.Telemetry()
	if !rec.Enabled() {
		t.Fatal("recorder not attached")
	}
	// Two phases, each a balanced span, plus the profiling window and
	// the optimize span.
	if got := rec.CountEvents("phase", ""); got != 4 {
		t.Errorf("phase events %d, want 4 (2 spans)", got)
	}
	if got := rec.CountEvents("profile", "window"); got != 2 {
		t.Errorf("profile window events %d, want 2", got)
	}
	if got := rec.CountEvents("optimize", "optimize"); got != 2 {
		t.Errorf("optimize events %d, want 2", got)
	}
	for _, stage := range []string{"rank", "threshold", "promote", "clip"} {
		if got := rec.CountEvents("analyze", stage); got != 2 {
			t.Errorf("analyze/%s events %d, want 2", stage, got)
		}
	}
	// Terminal migration events partition the regions like the report.
	if got := rec.CountEvents("migrate", "region-migrated"); got != rep.RegionsMigrated {
		t.Errorf("region-migrated %d != RegionsMigrated %d", got, rep.RegionsMigrated)
	}
	if got := rec.CountEvents("migrate", "region-retried"); got != rep.RegionsRetried {
		t.Errorf("region-retried %d != RegionsRetried %d", got, rep.RegionsRetried)
	}
	if got := rec.CountEvents("migrate", "region-skipped"); got != rep.RegionsSkipped {
		t.Errorf("region-skipped %d != RegionsSkipped %d", got, rep.RegionsSkipped)
	}
	if rep.Regions == 0 {
		t.Fatal("nothing migrated; the telemetry assertions are vacuous")
	}

	// The simulated clock advanced: the last event sits at the sum of
	// the phase wall times plus the migration time (within fp rounding).
	events := rec.Events()
	var wantNS float64
	for _, pr := range rt.Phases() {
		wantNS += pr.Stats.WallSeconds * 1e9
	}
	wantNS += rep.Seconds * 1e9
	last := events[len(events)-1].SimNS
	if diff := float64(last) - wantNS; diff > 1000 || diff < -1000 {
		t.Errorf("final sim stamp %d ns, want ~%.0f ns", last, wantNS)
	}

	// The written trace parses back with identical event count.
	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Errorf("trace round trip: %d events, want %d", len(back), len(events))
	}

	var heat bytes.Buffer
	if err := rt.WriteChunkHeat(&heat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(heat.Bytes(), []byte("hot,")) {
		t.Error("chunk-heat dump missing the hot object")
	}
}

func TestTelemetryFaultEventsMatchInjector(t *testing.T) {
	rt, rep := runTracedCycle(t, &faultinject.Schedule{Faults: []faultinject.Fault{
		{Op: faultinject.OpReserve, Nth: 1},
	}})
	if rep.RegionsRetried == 0 {
		t.Fatal("injected staging fault did not force a retry")
	}
	// WriteTrace syncs pending fault events; afterwards the trace's
	// fault instants match the injector's event log one-to-one.
	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Telemetry().CountEvents("fault", ""), len(rt.FaultEvents()); got != want {
		t.Errorf("fault events in trace %d != injector %d", got, want)
	}
	if rt.Telemetry().CountEvents("migrate", "region-rollback") == 0 {
		t.Error("no rollback event for the failed attempt")
	}
	if rt.Telemetry().CountEvents("migrate", "region-attempt") < 2 {
		t.Error("retry did not record a second attempt")
	}
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	rt, err := New(NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Telemetry().Enabled() {
		t.Fatal("recorder attached without Options.Recorder")
	}
	a, err := NewArray[uint64](rt, "a", 1024)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	rt.RunPhase("p", func(c *Ctx) {
		lo, hi := c.Range(a.Len())
		for i := lo; i < hi; i++ {
			a.Load(c, i)
		}
	})
	rt.ProfilingStop()
	// The writers still produce valid (empty) artifacts on a disabled
	// runtime.
	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("disabled runtime emitted %d events", len(events))
	}
}

// TestObservationsAgreeAcrossEpochShapes pins the one observation
// stream: after every epoch — synchronous, overlapped or replayed, and
// before any trace writer runs — the trace holds exactly one instant
// per fault event, breaker transition and granule transition, and the
// metrics registry agrees with the epoch reports. Each runtime has
// health with scrub, a one-strike breaker, and a persistent migration
// fault storm over one of two arrays the epochs scan in turn, so the
// fault, breaker and granule logs grow while the other array moves.
func TestObservationsAgreeAcrossEpochShapes(t *testing.T) {
	const epochs = 4
	gov := WithGovernor(GovernorOptions{BreakerThreshold: 1, BreakerCooldown: 1})
	// fixture adds the stormed array to healthFixture's pair; odd
	// epochs scan the cold array, even epochs the stormed one.
	fixture := func(opts ...Option) (*Runtime, []*Array[uint64]) {
		rt, _, cold := healthFixture(t, append([]Option{gov}, opts...)...)
		stormed, err := NewArray[uint64](rt, "stormed", 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return rt, []*Array[uint64]{cold, stormed}
	}
	pc := core.NewPlanCache()
	recording, scanned := fixture(WithPlanCache(pc))
	sig := recording.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if _, err := recording.ArmPlan(sig); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		epochOn(t, recording, fmt.Sprintf("e%d", e), scanned[(e-1)%2])
	}
	if _, err := recording.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	instants := func(rec *telemetry.Recorder, cat, prefix string) int {
		n := 0
		for _, ev := range rec.Events() {
			if ev.Cat == cat && ev.Ph == telemetry.PhaseInstant && strings.HasPrefix(ev.Name, prefix) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name          string
		async, replay bool
	}{
		{name: "sync"},
		{name: "overlapped", async: true},
		{name: "replayed", replay: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := telemetry.NewRecorder()
			opts := []Option{WithTelemetry(rec), WithMetrics(NewMetricsRegistry())}
			switch {
			case tc.async:
				opts = append(opts, WithAsyncPlacement())
			case tc.replay:
				opts = append(opts, WithPlanCache(pc))
			}
			rt, scanned := fixture(opts...)
			if tc.replay {
				if v, err := rt.ArmPlan(sig); err != nil || v != core.LookupHit {
					t.Fatalf("ArmPlan = (%v, %v), want hit", v, err)
				}
			}
			rt.ArmFaults(faultinject.Fault{
				Kind: faultinject.Persistent, Op: faultinject.OpRetier,
				Base: scanned[1].Object().Base(), Size: scanned[1].Object().Size(),
			})
			var moved uint64
			for e := 1; e <= epochs; e++ {
				name := fmt.Sprintf("e%d", e)
				body := func() { scanPhase(rt, name, scanned[(e-1)%2]) }
				var rep EpochReport
				var err error
				if tc.async {
					rep, err = rt.RunEpochAsync(context.Background(), name, body)
				} else {
					rep, err = rt.RunEpoch(name, body)
				}
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if rep.Replayed != tc.replay {
					t.Fatalf("epoch %d: Replayed %v, want %v", e, rep.Replayed, tc.replay)
				}
				moved += rep.Migration.BytesMoved

				if got, want := instants(rec, "fault", ""), len(rt.FaultEvents()); got != want {
					t.Errorf("epoch %d: %d fault instants, injector logged %d", e, got, want)
				}
				if got, want := instants(rec, "governor", "breaker-"), len(rt.BreakerTransitions()); got != want {
					t.Errorf("epoch %d: %d breaker instants, %d transitions", e, got, want)
				}
				if got, want := instants(rec, "health", "granule-"), len(rt.Scoreboard().Transitions()); got != want {
					t.Errorf("epoch %d: %d granule instants, %d transitions", e, got, want)
				}
				snap := rt.Metrics().Snapshot()
				if got := snap.Counters["atmem_migration_moved_bytes_total"]; got != moved {
					t.Errorf("epoch %d: moved-bytes counter %d, reports sum to %d", e, got, moved)
				}
				if got := snap.Counters["atmem_epochs_total"]; got != uint64(e) {
					t.Errorf("epoch %d: epochs counter %d", e, got)
				}
			}
			if len(rt.FaultEvents()) == 0 || moved == 0 || len(rt.Scoreboard().Transitions()) == 0 {
				t.Fatalf("%d faults, %d bytes moved, %d granule transitions: the agreement checks are vacuous",
					len(rt.FaultEvents()), moved, len(rt.Scoreboard().Transitions()))
			}
		})
	}
}
