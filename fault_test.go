package atmem

import (
	"errors"
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/memsim"
)

// faultCycleResult captures everything one profile→optimize→verify cycle
// produced that the fault matrix asserts on.
type faultCycleResult struct {
	rt     *Runtime
	report MigrationReport
	// data is a copy of every array element after the cycle.
	data [][]uint64
}

// runFaultCycle executes one full session — allocate two arrays with
// deterministic contents, profile a phase that makes one of them hot,
// Optimize under the given schedule, run a post-migration phase — and
// returns the state the invariant assertions inspect. A nil schedule is
// the fault-free baseline.
func runFaultCycle(t *testing.T, sched *faultinject.Schedule) faultCycleResult {
	t.Helper()
	var opts []Option
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
	for i := 0; i < hot.Len(); i++ {
		hot.Raw()[i] = uint64(i)*2654435761 + 1
	}
	for i := 0; i < cold.Len(); i++ {
		cold.Raw()[i] = uint64(i) * 40503
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
		t.Fatalf("Optimize under faults must degrade, not fail: %v", err)
	}
	phase("after")
	snap := func(a *Array[uint64]) []uint64 {
		out := make([]uint64, a.Len())
		copy(out, a.Raw())
		return out
	}
	return faultCycleResult{rt: rt, report: rep, data: [][]uint64{snap(hot), snap(cold)}}
}

// assertFaultInvariants checks the guarantees every fault schedule must
// preserve against the fault-free baseline: object data bit-identical,
// no staging reservation leaked, and the capacity ledger consistent with
// the page table.
func assertFaultInvariants(t *testing.T, label string, baseline, got faultCycleResult) {
	t.Helper()
	for ai := range baseline.data {
		want, have := baseline.data[ai], got.data[ai]
		if len(want) != len(have) {
			t.Fatalf("%s: array %d length %d vs %d", label, ai, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: array %d element %d corrupted: %#x vs %#x",
					label, ai, i, have[i], want[i])
			}
		}
	}
	for tier := memsim.Tier(0); tier < memsim.NumTiers; tier++ {
		if res := got.rt.System().Reserved(tier); res != 0 {
			t.Errorf("%s: leaked %d reserved bytes on %s", label, res, tier)
		}
	}
	if err := got.rt.System().CheckConsistency(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	r := got.report
	if r.RegionsMigrated+r.RegionsRetried+r.RegionsSkipped != r.Regions {
		t.Errorf("%s: outcome counts %d+%d+%d do not sum to %d regions",
			label, r.RegionsMigrated, r.RegionsRetried, r.RegionsSkipped, r.Regions)
	}
}

// TestFaultMatrixCycle replays every fault point of the schedule-driven
// matrix — staging reservation failure, mid-region remap failure,
// splinter failure, persistent capacity-style exhaustion, and seeded
// probabilistic storms — through a full profile→optimize→verify cycle.
// Whatever fires, Optimize must degrade (never error), object data must
// be bit-identical to the fault-free run, and no reservation may leak.
func TestFaultMatrixCycle(t *testing.T) {
	baseline := runFaultCycle(t, nil)
	if baseline.report.BytesMoved == 0 {
		t.Fatal("baseline migrated nothing; the matrix would be vacuous")
	}
	if baseline.report.Degraded() {
		t.Fatalf("fault-free baseline degraded: %+v", baseline.report)
	}

	matrix := []struct {
		name  string
		sched faultinject.Schedule
	}{
		{"staging-reserve-first", faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Nth: 1, Err: memsim.ErrNoCapacity}}}},
		{"mid-region-retier", faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpRetier, Nth: 2}}}},
		{"splinter-first", faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpSplinter, Nth: 1}}}},
		{"reserve-exhausted", faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 1, Err: memsim.ErrNoCapacity}}}},
		{"retier-exhausted", faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpRetier, Prob: 1}}}},
		{"probabilistic-storm-seed1", faultinject.Schedule{Seed: 1, Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 0.3},
			{Op: faultinject.OpRetier, Prob: 0.3},
			{Op: faultinject.OpSplinter, Prob: 0.3}}}},
		{"probabilistic-storm-seed7", faultinject.Schedule{Seed: 7, Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 0.5},
			{Op: faultinject.OpRetier, Prob: 0.5}}}},
	}
	for _, tc := range matrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runFaultCycle(t, &tc.sched)
			assertFaultInvariants(t, tc.name, baseline, got)
			if len(got.rt.FaultEvents()) == 0 {
				t.Skipf("schedule fired no faults; nothing to assert beyond invariants")
			}
			if !got.report.Degraded() && got.report.BytesMoved != baseline.report.BytesMoved {
				t.Errorf("report claims no degradation but moved %d vs baseline %d",
					got.report.BytesMoved, baseline.report.BytesMoved)
			}
		})
	}
}

// TestFaultEmptyScheduleMatchesBaseline pins the zero-overhead contract:
// an armed-but-empty schedule must produce a migration report
// bit-identical to a run with no schedule at all.
func TestFaultEmptyScheduleMatchesBaseline(t *testing.T) {
	baseline := runFaultCycle(t, nil)
	empty := runFaultCycle(t, &faultinject.Schedule{})
	if baseline.report != empty.report {
		t.Errorf("reports diverge:\nnil schedule:   %+v\nempty schedule: %+v",
			baseline.report, empty.report)
	}
}

// TestFaultAllocExhaustionIsGraceful exercises the OpAlloc fault point:
// an allocation that faults must fail with a typed, joined error and
// leave the runtime fully usable.
func TestFaultAllocExhaustionIsGraceful(t *testing.T) {
	rt, err := New(NVMDRAM(), WithFaultSchedule(faultinject.Schedule{Faults: []faultinject.Fault{
		{Op: faultinject.OpAlloc, Nth: 2, Err: memsim.ErrNoCapacity},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Malloc("ok", 1<<20); err != nil {
		t.Fatal(err)
	}
	_, err = rt.Malloc("doomed", 1<<20)
	if err == nil {
		t.Fatal("faulted allocation succeeded")
	}
	if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, memsim.ErrNoCapacity) {
		t.Errorf("error %v lacks ErrInjected/ErrNoCapacity", err)
	}
	if len(rt.FaultEvents()) != 1 {
		t.Errorf("fault events %v", rt.FaultEvents())
	}
	// The runtime survives: the next allocation lands cleanly.
	if _, err := rt.Malloc("after", 1<<20); err != nil {
		t.Fatalf("runtime unusable after injected alloc fault: %v", err)
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestFaultSkippedRegionsKeepTranslationsValid checks the invalidation
// contract from the kernel's point of view: after a fully-skipped
// migration, a phase re-reading the data must still translate every
// address (no stale invalidation, no simulated segfault) and produce the
// same values.
func TestFaultSkippedRegionsKeepTranslationsValid(t *testing.T) {
	got := runFaultCycle(t, &faultinject.Schedule{Faults: []faultinject.Fault{
		{Op: faultinject.OpReserve, Prob: 1},
		{Op: faultinject.OpRetier, Prob: 1},
	}})
	if got.report.BytesMoved != 0 || got.report.RegionsSkipped == 0 {
		t.Fatalf("expected a fully skipped migration, got %+v", got.report)
	}
	// runFaultCycle already ran a post-migration phase; reaching here
	// means no simulated segfault fired. Placement must be untouched.
	if ratio := got.rt.FastDataRatio(); ratio != 0 {
		t.Errorf("skipped migration still moved data: fast ratio %v", ratio)
	}
}
