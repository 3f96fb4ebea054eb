package atmem

import (
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// govTestbed is the NVM-DRAM testbed with the fast tier shrunk so small
// arrays can cross the governor's watermarks.
func govTestbed(fastCap uint64) Testbed {
	p := memsim.NVMDRAMParams()
	if fastCap > 0 {
		p.Tiers[memsim.TierFast].CapacityBytes = fastCap
	}
	return CustomTestbed(p)
}

// scanPhase runs one phase that sweeps the given arrays with a strided
// permutation (the fault tests' idiom: strides defeat the simulator's
// sequential fast path and keep the profiler fed with miss samples), so
// every chunk becomes unambiguously hot and the analyzer's selection is
// stable across epochs.
func scanPhase(rt *Runtime, name string, arrays ...*Array[uint64]) {
	rt.RunPhase(name, func(c *Ctx) {
		for _, a := range arrays {
			lo, hi := c.Range(a.Len())
			for rep := 0; rep < 4; rep++ {
				for i := lo; i < hi; i++ {
					a.Load(c, (i*7919)%a.Len())
				}
			}
		}
	})
}

// epochOn runs one governed epoch whose body scans the given arrays.
func epochOn(t *testing.T, rt *Runtime, name string, arrays ...*Array[uint64]) EpochReport {
	t.Helper()
	rep, err := rt.RunEpoch(name, func() { scanPhase(rt, name, arrays...) })
	if err != nil {
		t.Fatalf("epoch %s: %v", name, err)
	}
	if !rep.Optimized {
		t.Fatalf("epoch %s attributed no samples", name)
	}
	return rep
}

func fillDeterministic(a *Array[uint64], salt uint64) {
	for i := range a.Raw() {
		a.Raw()[i] = uint64(i)*2654435761 + salt
	}
}

func assertDataIntact(t *testing.T, label string, a *Array[uint64], salt uint64) {
	t.Helper()
	for i, v := range a.Raw() {
		if want := uint64(i)*2654435761 + salt; v != want {
			t.Fatalf("%s: element %d corrupted: %#x vs %#x", label, i, v, want)
		}
	}
}

// TestGovernedSecondEpochEmptyDelta pins the redundant re-migration fix:
// an epoch whose samples reproduce the previous plan must produce an
// empty delta and move zero bytes, because everything it selects is
// already fast-resident.
func TestGovernedSecondEpochEmptyDelta(t *testing.T) {
	rt, err := New(NVMDRAM(), WithSamplePeriod(64), WithGovernor(GovernorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "cold", 256<<10); err != nil {
		t.Fatal(err)
	}

	first := epochOn(t, rt, "e1", hot).Migration
	if first.BytesMoved == 0 || first.PromotedBytes == 0 {
		t.Fatalf("first epoch promoted nothing: %+v", first)
	}
	if first.DeltaEmpty {
		t.Fatalf("first epoch reported an empty delta: %+v", first)
	}
	resident := rt.ResidentBytes()
	if resident == 0 {
		t.Fatal("no residency tracked after first epoch")
	}

	second := epochOn(t, rt, "e2", hot).Migration
	if !second.DeltaEmpty {
		t.Errorf("second epoch with unchanged samples not empty: %+v", second)
	}
	if second.BytesMoved != 0 || second.PromotedBytes != 0 || second.DemotedBytes != 0 {
		t.Errorf("second epoch re-migrated: moved %d (+%d/-%d)",
			second.BytesMoved, second.PromotedBytes, second.DemotedBytes)
	}
	if got := rt.ResidentBytes(); got != resident {
		t.Errorf("residency drifted across a converged epoch: %d vs %d", got, resident)
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestGovernedFreeDropsResidency is the regression test for Free on a
// governed runtime: freeing an object must forget its residency and
// hysteresis state, so an allocation reusing the address range starts
// cold and is promoted on its own merit.
func TestGovernedFreeDropsResidency(t *testing.T) {
	rt, err := New(NVMDRAM(), WithSamplePeriod(64), WithGovernor(GovernorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	epochOn(t, rt, "warm", hot)
	if rt.ResidentBytes() == 0 {
		t.Fatal("no residency tracked after warm epoch")
	}

	if err := hot.Free(); err != nil {
		t.Fatal(err)
	}
	if got := rt.ResidentBytes(); got != 0 {
		t.Fatalf("freed object left %d resident bytes behind", got)
	}

	// A new allocation (typically reusing the freed range) must not
	// inherit the old residency: its first hot epoch promotes it.
	next, err := NewArray[uint64](rt, "next", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rep := epochOn(t, rt, "reuse", next).Migration
	if rep.PromotedBytes == 0 {
		t.Errorf("stale residency suppressed the promotion of a fresh object: %+v", rep)
	}
	if rep.DeltaEmpty {
		t.Errorf("fresh object's first epoch reported an empty delta: %+v", rep)
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestGovernedPressureDemotionFundsShift drives a hot-set shift on a
// shrunken fast tier: promoting the new hot set would blow through the
// high watermark long before hysteresis expires, so the watermarks must
// demote the old set's cold candidates first, draining occupancy to the
// low watermark, and the runtime must converge to empty deltas within
// the hysteresis window after the shift.
func TestGovernedPressureDemotionFundsShift(t *testing.T) {
	const (
		fastCap = 8 << 20
		reserve = 2 << 20
		capEff  = fastCap - reserve
		n       = (4 << 20) / 8 // 4 MiB of uint64 per array
	)
	rt, err := New(govTestbed(fastCap),
		WithSamplePeriod(64),
		WithCapacityReserve(reserve),
		WithGovernor(GovernorOptions{
			HighWatermark:     0.90,
			LowWatermark:      0.75,
			DemoteAfterEpochs: 3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray[uint64](rt, "a", n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArray[uint64](rt, "b", n)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(a, 1)
	fillDeterministic(b, 2)

	// Phase 1: a is the hot set and becomes fully resident.
	warm := epochOn(t, rt, "warm-a", a).Migration
	if warm.PromotedBytes != a.Object().Size() {
		t.Fatalf("warm epoch promoted %d of %d bytes", warm.PromotedBytes, a.Object().Size())
	}
	epochOn(t, rt, "steady-a", a)

	// Phase 2: the hot set shifts to b. a's chunks are cold for only one
	// epoch — far from the hysteresis window — so only pressure demotion
	// can fund b's promotion.
	shift := epochOn(t, rt, "shift-b", b).Migration
	if shift.PressureDemotedBytes == 0 {
		t.Fatalf("hot-set shift triggered no pressure demotion: %+v", shift)
	}
	if shift.PromotedBytes != b.Object().Size() {
		t.Errorf("shift epoch promoted %d of %d bytes", shift.PromotedBytes, b.Object().Size())
	}
	if shift.RegionsDemoted == 0 || shift.DemotedBytes != shift.PressureDemotedBytes {
		t.Errorf("demotion accounting: %d regions, %d bytes, %d pressure",
			shift.RegionsDemoted, shift.DemotedBytes, shift.PressureDemotedBytes)
	}
	// Pressure drains to the low watermark and stops there: committed
	// occupancy lands at LowWatermark * effective capacity (the demotion
	// target is exact; chunk granularity divides it evenly here).
	if used := rt.System().Used(memsim.TierFast); used > uint64(0.75*capEff) {
		t.Errorf("post-shift occupancy %d above low watermark %d", used, uint64(0.75*capEff))
	}

	// Phase 3: b stays hot. The rest of a drains via hysteresis
	// (DemoteAfterEpochs=3), and the loop converges to empty deltas
	// within the window — no thrash.
	var hysteresisDemoted uint64
	for e := 0; e < 3; e++ {
		rep := epochOn(t, rt, "steady-b", b).Migration
		if rep.PromotedBytes != 0 {
			t.Errorf("steady epoch %d re-promoted %d bytes", e, rep.PromotedBytes)
		}
		if rep.PressureDemotedBytes != 0 {
			t.Errorf("steady epoch %d used pressure demotion: %+v", e, rep)
		}
		hysteresisDemoted += rep.DemotedBytes
	}
	if leftover := a.Object().FastBytes(); leftover != 0 {
		t.Errorf("a still holds %d fast bytes after hysteresis window", leftover)
	}
	if hysteresisDemoted == 0 {
		t.Error("hysteresis never demoted a's leftover resident chunks")
	}
	if got := rt.ResidentBytes(); got != b.Object().Size() {
		t.Errorf("resident bytes %d, want exactly b's %d", got, b.Object().Size())
	}
	for e := 0; e < 5; e++ {
		rep := epochOn(t, rt, "converged-b", b).Migration
		if !rep.DeltaEmpty || rep.BytesMoved != 0 {
			t.Fatalf("converged epoch %d moved data again: %+v", e, rep)
		}
	}

	assertDataIntact(t, "a", a, 1)
	assertDataIntact(t, "b", b, 2)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestGovernedBudgetFullyReservedDegrades pins the shrinking-budget
// contract: a reserve that swallows the whole fast tier leaves a zero
// placement budget, and the governed Optimize must treat that as a clean
// no-op epoch — no ErrNoCapacity, no breaker damage — ranking under a
// 1-byte budget rather than 0 (which the analyzer reads as unlimited).
func TestGovernedBudgetFullyReservedDegrades(t *testing.T) {
	rt, err := New(NVMDRAM(), WithSamplePeriod(64), WithGovernor(GovernorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetCapacityReserve(rt.System().P.Tiers[memsim.TierFast].CapacityBytes + 1)

	rep := epochOn(t, rt, "starved", hot).Migration
	if rep.BytesMoved != 0 || rep.SelectedBytes != 0 {
		t.Fatalf("fully-reserved tier still placed data: %+v", rep)
	}
	if rep.Breaker != governor.StateClosed.String() {
		t.Errorf("clean no-op epoch damaged the breaker: %s", rep.Breaker)
	}
	if rt.ResidentBytes() != 0 {
		t.Errorf("resident bytes %d on a starved tier", rt.ResidentBytes())
	}

	// Restoring headroom resumes placement on the next epoch.
	rt.SetCapacityReserve(2 << 20)
	if rep := epochOn(t, rt, "restored", hot).Migration; rep.PromotedBytes == 0 {
		t.Errorf("epoch after restoring the reserve promoted nothing: %+v", rep)
	}
}

// TestGovernedBreakerFaultCycle is the robustness acceptance cycle: a
// fault schedule that fails every staging reservation degrades every
// migration into a full skip, the breaker opens and skips epochs (which
// preserves the remaining fault budget), half-open probes burn through
// the rest, and once the faults are exhausted a probe succeeds, the
// breaker closes, and the loop converges — with phases running and data
// bit-identical throughout.
func TestGovernedBreakerFaultCycle(t *testing.T) {
	rt, err := New(NVMDRAM(),
		WithSamplePeriod(64),
		WithFaultSchedule(faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 1, MaxFires: 25, Err: memsim.ErrNoCapacity},
		}}),
		WithGovernor(GovernorOptions{
			BreakerThreshold: 2,
			BreakerCooldown:  2,
			MaxCooldown:      4,
		}))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 3)

	var skipped, emptyTail int
	for e := 1; e <= 40; e++ {
		rep := epochOn(t, rt, "cycle", hot).Migration
		if rep.BreakerSkipped {
			skipped++
		}
		if rep.Breaker == governor.StateClosed.String() && rep.DeltaEmpty {
			emptyTail++
			if emptyTail >= 3 {
				break
			}
		} else {
			emptyTail = 0
		}
	}

	if emptyTail < 3 {
		t.Fatalf("loop never converged: state %s after %d epochs, transitions %+v",
			rt.BreakerState(), rt.Epoch(), rt.BreakerTransitions())
	}
	if skipped == 0 {
		t.Error("open breaker never skipped an epoch")
	}
	var opened, closedAfterProbe bool
	for _, tr := range rt.BreakerTransitions() {
		if tr.From == governor.StateClosed && tr.To == governor.StateOpen {
			opened = true
		}
		if tr.From == governor.StateHalfOpen && tr.To == governor.StateClosed {
			closedAfterProbe = true
		}
	}
	if !opened || !closedAfterProbe {
		t.Errorf("transition log misses open/close: %+v", rt.BreakerTransitions())
	}
	if got := rt.BreakerState(); got != governor.StateClosed {
		t.Errorf("final breaker state %s", got)
	}
	if hot.Object().FastBytes() != hot.Object().Size() {
		t.Errorf("hot set not fully promoted after recovery: %d of %d fast",
			hot.Object().FastBytes(), hot.Object().Size())
	}

	assertDataIntact(t, "hot", hot, 3)
	for tier := memsim.Tier(0); tier < memsim.NumTiers; tier++ {
		if res := rt.System().Reserved(tier); res != 0 {
			t.Errorf("leaked %d reserved bytes on %s", res, tier)
		}
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestGovernedEpochLoopConcurrentPhases runs the epoch loop with
// multi-threaded phase kernels and a mid-loop hot-set shift; it exists
// to put the governor's bookkeeping under the race detector next to the
// simulator's concurrent accessors.
func TestGovernedEpochLoopConcurrentPhases(t *testing.T) {
	rt, err := New(govTestbed(8<<20),
		WithSamplePeriod(64),
		WithCapacityReserve(2<<20),
		WithGovernor(GovernorOptions{DemoteAfterEpochs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray[uint64](rt, "a", (3<<20)/8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArray[uint64](rt, "b", (3<<20)/8)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		hot := a
		if e >= 4 {
			hot = b
		}
		rep, err := rt.RunEpoch("mix", func() {
			scanPhase(rt, "load", hot)
			scanPhase(rt, "store", hot)
		})
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if len(rep.Phases) != 2 {
			t.Fatalf("epoch %d recorded %d phases", e, len(rep.Phases))
		}
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestRunEpochEdgeCases pins that epochs need no option (a default
// runtime runs them) and the zero-sample epoch contract.
func TestRunEpochEdgeCases(t *testing.T) {
	rt, err := New(NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "idle", 4<<10); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.RunEpoch("idle", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Optimized || rep.Samples != 0 {
		t.Errorf("idle epoch optimized: %+v", rep)
	}
	if rep.Migration.BytesMoved != 0 {
		t.Errorf("idle epoch moved %d bytes", rep.Migration.BytesMoved)
	}
	if got := rt.BreakerState(); got != governor.StateClosed {
		t.Errorf("idle epoch advanced the breaker: %s", got)
	}
	if rt.Epoch() != 1 {
		t.Errorf("epoch counter %d", rt.Epoch())
	}
}

// TestFreedQuarantineShrinksWatermark pins the pressure watermark's
// capacity when a freed object leaves quarantined pages behind. Free
// disowns the object's quarantine debit from the runtime's sub-ledger,
// but the pages stay retired, so the watermarks must still weigh the
// fast footprint against the tier less the whole quarantine ledger: 8
// MiB less 2 MiB quarantined less the 2 MiB reserve leaves 4 MiB, and a
// 2 MiB hot-set shift onto 2 MiB resident projects 100% of it, so
// pressure drains 1 MiB to the 75% low watermark. Against the whole
// share (8 MiB less the reserve) the same shift projects 67% and
// demotes nothing.
func TestFreedQuarantineShrinksWatermark(t *testing.T) {
	const (
		fastCap = 8 << 20
		size    = 2 << 20
		n       = size / 8
	)
	rt, err := New(govTestbed(fastCap),
		WithSamplePeriod(64),
		WithCapacityReserve(2<<20),
		WithGovernor(GovernorOptions{
			HighWatermark:     0.90,
			LowWatermark:      0.75,
			DemoteAfterEpochs: 3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewArray[uint64](rt, "scratch", n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray[uint64](rt, "a", n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArray[uint64](rt, "b", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.System().RetirePages(scratch.Object().Base(), size); err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(scratch.Object()); err != nil {
		t.Fatal(err)
	}
	if q := rt.System().Quarantined(); q != size {
		t.Fatalf("quarantined %d bytes after the free, want %d", q, size)
	}

	epochOn(t, rt, "warm-a", a)
	epochOn(t, rt, "steady-a", a)
	shift := epochOn(t, rt, "shift-b", b).Migration
	if shift.PressureDemotedBytes != 1<<20 {
		t.Errorf("shift demoted %d bytes under pressure, want %d", shift.PressureDemotedBytes, 1<<20)
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}
