package harness

import (
	"slices"
	"testing"

	"atmem"
	"atmem/internal/governor"
	"atmem/internal/health"
)

// convergedResult is a synthetic result that passes the fault-free
// adaptive bars: one record per scripted epoch, the first promoting,
// one PR epoch pressure-demoting, and every other epoch an empty delta.
func convergedResult(sc Script) *ScriptResult {
	res := &ScriptResult{FinalState: governor.StateClosed}
	for _, st := range sc.Steps {
		for i := 1; i <= st.Epochs; i++ {
			res.Epochs = append(res.Epochs, ScriptEpoch{App: st.App, Reserve: st.reserveAt(i),
				Migration: atmem.MigrationReport{DeltaEmpty: true}})
		}
	}
	res.Epochs[0].Migration = atmem.MigrationReport{PromotedBytes: 1 << 20}
	shift := slices.IndexFunc(res.Epochs, isPR)
	res.Epochs[shift].Migration = atmem.MigrationReport{PromotedBytes: 1 << 20, PressureDemotedBytes: 1 << 20}
	return res
}

// TestAdaptiveBars pins the adaptive bars on synthetic results: the
// settle window sits DemoteAfterEpochs+2 epochs after the first PR
// epoch at the final reserve, any movement after it fails, and so does
// a breaker transition in the fault-free run.
func TestAdaptiveBars(t *testing.T) {
	sc := adaptiveScript(false)
	if err := adaptiveBars(sc, convergedResult(sc)); err != nil {
		t.Fatalf("converged result rejected: %v", err)
	}
	// The hold window starts at the ramp's last epoch (its reserve is
	// already the final one): index 6, so the settle window ends at 10.
	res := convergedResult(sc)
	if got := holdStart(res.Epochs); got != 6 {
		t.Errorf("holdStart = %d, want 6", got)
	}
	res.Epochs[9].Migration = atmem.MigrationReport{PromotedBytes: 4096, BytesMoved: 4096}
	if err := adaptiveBars(sc, res); err != nil {
		t.Errorf("movement inside the settle window rejected: %v", err)
	}
	res.Epochs[10].Migration = atmem.MigrationReport{PromotedBytes: 4096, BytesMoved: 4096}
	if err := adaptiveBars(sc, res); err == nil {
		t.Error("a non-empty delta after the settle window passed the bars")
	}
	res = convergedResult(sc)
	res.Transitions = []governor.Transition{{Epoch: 2, From: governor.StateClosed, To: governor.StateOpen}}
	if err := adaptiveBars(sc, res); err == nil {
		t.Error("a breaker transition in the fault-free run passed the bars")
	}
	res = convergedResult(sc)
	res.Epochs = res.Epochs[:12]
	if err := adaptiveBars(sc, res); err == nil {
		t.Error("a run with fewer than 10 epochs after the settle window passed the bars")
	}
}

// chaosResults are synthetic fault-free and faulted chaos results that
// pass the chaos bars: the quarantine bar is crossed at storm epoch 6.
func chaosResults(sc Script) (base, faulted *ScriptResult) {
	base = &ScriptResult{CRC: 7, Ranks: []float64{0.25, 0.75}}
	faulted = &ScriptResult{CRC: 7, Ranks: []float64{0.25, 0.75}}
	faulted.Health = atmem.HealthStats{
		Quarantined:        chaosQuarantineTarget(),
		CorruptedChunks:    3,
		EmergencyDemotions: 3,
		PromotionsVetoed:   1,
		Scrub:              health.ScrubStats{Detections: 3, Repairs: 3},
		Board:              health.Stats{Condemned: 1},
	}
	for i := 1; i <= 16; i++ {
		e := ScriptEpoch{App: "pr"}
		if i >= 6 {
			e.Health.Quarantined = chaosQuarantineTarget()
		}
		faulted.Epochs = append(faulted.Epochs, e)
	}
	return base, faulted
}

// TestChaosBars pins the chaos bars on synthetic results: every
// corrupted chunk must be detected, and the quarantine bar must be
// crossed during the storm.
func TestChaosBars(t *testing.T) {
	sc := chaosScript(true)
	base, faulted := chaosResults(sc)
	if err := chaosBars(sc, base, faulted); err != nil {
		t.Fatalf("clean chaos result rejected: %v", err)
	}
	faulted.Health.Scrub.Detections = 2
	if err := chaosBars(sc, base, faulted); err == nil {
		t.Error("detections != corrupted chunks passed the bars")
	}
	base, faulted = chaosResults(sc)
	for i := range faulted.Epochs[:sc.DisarmAfter] {
		faulted.Epochs[i].Health.Quarantined = 0
	}
	if got := chaosTargetEpoch(faulted); got != sc.DisarmAfter+1 {
		t.Fatalf("target epoch %d, want %d", got, sc.DisarmAfter+1)
	}
	if err := chaosBars(sc, base, faulted); err == nil {
		t.Error("a quarantine bar first crossed after the storm passed the bars")
	}
	base, faulted = chaosResults(sc)
	faulted.CRC++
	if err := chaosBars(sc, base, faulted); err == nil {
		t.Error("diverged results passed the bars")
	}
}

// TestSameResults pins the "placement changed no result" decision:
// checksums must match bit for bit, PR ranks within the kernel's
// validation tolerance.
func TestSameResults(t *testing.T) {
	want := &ScriptResult{CRC: 1, Ranks: []float64{0.5, 1e-3}}
	if err := sameResults(want, &ScriptResult{CRC: 1, Ranks: []float64{0.5 + 1e-7, 1e-3}}); err != nil {
		t.Errorf("ranks within tolerance rejected: %v", err)
	}
	if err := sameResults(want, &ScriptResult{CRC: 2, Ranks: []float64{0.5, 1e-3}}); err == nil {
		t.Error("a CRC mismatch passed")
	}
	if err := sameResults(want, &ScriptResult{CRC: 1, Ranks: []float64{0.5, 1.1e-3}}); err == nil {
		t.Error("a rank outside the tolerance passed")
	}
	if err := sameResults(want, &ScriptResult{CRC: 1, Ranks: []float64{0.5}}); err == nil {
		t.Error("a shorter rank vector passed")
	}
}
