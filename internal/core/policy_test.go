package core

import (
	"reflect"
	"testing"

	"atmem/internal/pebs"
)

// TestAnalyzerPolicyPlansByteIdentical pins the interface migration's
// core promise: the paper policy behind PlacementPolicy produces plans
// indistinguishable from a direct AnalyzeObserved call — same structure
// down to every float, so the refactor cannot have drifted the
// analyzer.
func TestAnalyzerPolicyPlansByteIdentical(t *testing.T) {
	for _, budget := range []uint64{0, 64 << 10, 1 << 20} {
		r := twoObjectRegistry(t)
		direct, err := AnalyzeObserved(r, 64, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		viaPolicy, err := AnalyzerPolicy{}.Rank(PolicyProfile{Registry: r, Period: 64}, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, viaPolicy) {
			t.Errorf("budget %d: policy plan diverged from AnalyzeObserved:\n direct: %+v\n policy: %+v",
				budget, direct, viaPolicy)
		}
	}
}

// TestAnalyzerPolicyNames pins the analyzer's naming: every label runs
// the same analyzer under one shared fingerprint, so cached plans
// recorded under one label replay under any other.
func TestAnalyzerPolicyNames(t *testing.T) {
	if got := (AnalyzerPolicy{}).Name(); got != "paper" {
		t.Errorf("default name = %q, want paper", got)
	}
	if got := (AnalyzerPolicy{Label: "all-fast"}).Name(); got != "all-fast" {
		t.Errorf("labeled name = %q", got)
	}
	if (AnalyzerPolicy{}).Fingerprint() != (AnalyzerPolicy{Label: "all-fast"}).Fingerprint() {
		t.Error("analyzer fingerprint must not depend on the label")
	}
}

// TestStaticFirstFitFreeze pins the static floor's contract: the
// candidate ordering is captured at the first Rank and never revisited,
// so a profile that later crowns different chunks cannot move the
// frozen selection.
func TestStaticFirstFitFreeze(t *testing.T) {
	r := twoObjectRegistry(t)
	s := &StaticFirstFit{}
	budget := uint64(4 * DefaultConfig().MinChunkBytes)
	first, err := s.Rank(PolicyProfile{Registry: r, Period: 64}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.SelectedBytes == 0 {
		t.Fatal("static policy selected nothing")
	}
	layout := func(p *Plan) map[string][]bool {
		out := make(map[string][]bool)
		for i := range p.Objects {
			out[p.Objects[i].Object.Name] = p.Objects[i].Local.Critical
		}
		return out
	}
	want := layout(first)

	// Flood the registry with a radically different heat profile; the
	// frozen pick list must not care.
	var flood []pebs.Sample
	cold := r.Objects()[1]
	lo, _ := cold.ChunkRange(cold.NumChunks - 1)
	for k := 0; k < 500; k++ {
		flood = append(flood, pebs.Sample{Addr: lo + uint64(k*64)})
	}
	r.AttributeSamples(flood)

	second, err := s.Rank(PolicyProfile{Registry: r, Period: 64, Epoch: 1}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(layout(second), want) {
		t.Errorf("frozen selection moved between epochs:\n first: %v\n second: %v",
			want, layout(second))
	}
}

// TestOraclePlacementRanksByTrace pins the hindsight policy: it ignores
// the live profile entirely, promotes the traced-hottest chunks, and
// respects the budget.
func TestOraclePlacementRanksByTrace(t *testing.T) {
	r := twoObjectRegistry(t)
	hot := r.Objects()[0]
	// The trace says the LAST chunks are hot — the opposite of the
	// attributed profile, which heats chunks 0-3.
	heat := make([]float64, hot.NumChunks)
	for j := hot.NumChunks - 4; j < hot.NumChunks; j++ {
		heat[j] = 100
	}
	tr := &HeatTrace{Period: 1, Objects: map[string][]float64{"hot": heat}}
	o := &OraclePlacement{Trace: tr}

	budget := uint64(4 * DefaultConfig().MinChunkBytes)
	plan, err := o.Rank(PolicyProfile{Registry: r, Period: 64}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hotPlan *ObjectPlan
	for i := range plan.Objects {
		if plan.Objects[i].Object.Name == "hot" {
			hotPlan = &plan.Objects[i]
		}
	}
	for j := 0; j < hot.NumChunks; j++ {
		wantCrit := j >= hot.NumChunks-4
		if hotPlan.Local.Critical[j] != wantCrit {
			t.Errorf("chunk %d critical = %v, want %v (oracle must follow the trace, not the profile)",
				j, hotPlan.Local.Critical[j], wantCrit)
		}
	}
	if plan.SelectedBytes > budget {
		t.Errorf("selected %d bytes over budget %d", plan.SelectedBytes, budget)
	}
}

// TestOraclePlacementBudgetAndMarginal pins greedyPlan's clipping
// semantics through the oracle: the budget fills densest-first, the
// hottest denied chunk sets MarginalDensity, and the coldest kept range
// sets ColdestKeptDensity.
func TestOraclePlacementBudgetAndMarginal(t *testing.T) {
	r := twoObjectRegistry(t)
	hot := r.Objects()[0]
	heat := make([]float64, hot.NumChunks)
	for j := range heat {
		heat[j] = float64(hot.NumChunks - j) // strictly decreasing
	}
	tr := &HeatTrace{Period: 1, Objects: map[string][]float64{"hot": heat}}
	o := &OraclePlacement{Trace: tr}

	budget := uint64(2 * DefaultConfig().MinChunkBytes)
	plan, err := o.Rank(PolicyProfile{Registry: r, Period: 64}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SelectedBytes != budget {
		t.Errorf("selected %d, want the full budget %d", plan.SelectedBytes, budget)
	}
	if plan.ClippedBytes == 0 {
		t.Error("nothing clipped despite a binding budget")
	}
	// Chunks 0 and 1 are hottest; chunk 2 is the first denial. The
	// oracle's reported density is the trace heat itself (already a
	// per-byte quantity).
	if plan.MarginalDensity != heat[2] {
		t.Errorf("MarginalDensity = %v, want first-denied chunk's heat %v",
			plan.MarginalDensity, heat[2])
	}
	if plan.ColdestKeptDensity <= plan.MarginalDensity || plan.ColdestKeptDensity > heat[0] {
		t.Errorf("ColdestKeptDensity = %v, want within kept range (%v, %v]",
			plan.ColdestKeptDensity, heat[1], heat[0])
	}
}

// TestOraclePlacementRatioObjective pins the Dinkelbach path: with the
// measured byte channels present, the oracle maximizes the fast-share
// ratio rather than ranking on scalar heat, and the two diverge when
// the fixed-point share is far from one half. Here the budget captures
// a dominant hot core, so the achieved share θ is high and the last
// slot is decided by slow-byte REMOVAL: the grain-amplified chunk 1
// must beat chunk 0 even though chunk 0's scalar heat is higher.
func TestOraclePlacementRatioObjective(t *testing.T) {
	r := twoObjectRegistry(t)
	hot := r.Objects()[0]
	n := hot.NumChunks
	heat := make([]float64, n)
	fast := make([]float64, n)
	slow := make([]float64, n)
	size := float64(hot.ChunkBytes(0))
	// Chunk 0: stream-like, heat 4.2. Chunk 1: grain-amplified, heat
	// 4.0. Chunks 2..n-3: the hot core the budget always takes.
	// Chunks n-2, n-1: near-idle.
	fast[0], slow[0] = 2.0*size, 2.2*size
	fast[1], slow[1] = 1.0*size, 3.0*size
	for j := 2; j < n-2; j++ {
		fast[j], slow[j] = 10*size, 10*size
	}
	for j := n - 2; j < n; j++ {
		fast[j], slow[j] = 0.01*size, 0.01*size
	}
	for j := 0; j < n; j++ {
		heat[j] = (fast[j] + slow[j]) / size
	}
	tr := &HeatTrace{
		Period:    1,
		Objects:   map[string][]float64{"hot": heat},
		FastBytes: map[string][]float64{"hot": fast},
		SlowBytes: map[string][]float64{"hot": slow},
	}
	o := &OraclePlacement{Trace: tr}
	// Budget = hot core + exactly one of chunks {0, 1}.
	budget := uint64(n-3) * hot.ChunkBytes(0)
	plan, err := o.Rank(PolicyProfile{Registry: r, Period: 64}, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hotPlan *ObjectPlan
	for i := range plan.Objects {
		if plan.Objects[i].Object.Name == "hot" {
			hotPlan = &plan.Objects[i]
		}
	}
	// Selecting chunk 1 keeps the larger slow-byte mass OUT of the
	// denominator: share(1) = 121/123.22 > share(0) = 122/125.02.
	if !hotPlan.Local.Critical[1] || hotPlan.Local.Critical[0] {
		t.Errorf("ratio objective kept scalar-heat order (crit[0]=%v crit[1]=%v); "+
			"want the grain-amplified chunk 1",
			hotPlan.Local.Critical[0], hotPlan.Local.Critical[1])
	}
}

// TestOracleValidate pins construction-time validation: a missing trace
// must surface before any Rank.
func TestOracleValidate(t *testing.T) {
	if err := (&OraclePlacement{}).Validate(); err == nil {
		t.Error("nil trace must fail validation")
	}
	if err := (&OraclePlacement{Trace: &HeatTrace{}}).Validate(); err == nil {
		t.Error("empty trace must fail validation")
	}
	tr := &HeatTrace{Objects: map[string][]float64{"x": {1}}}
	if err := (&OraclePlacement{Trace: tr}).Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// TestHeatTraceFingerprint pins that the fingerprint covers trace
// content — including the byte channels — so a different recording can
// never share a plan-cache signature.
func TestHeatTraceFingerprint(t *testing.T) {
	a := &HeatTrace{Period: 1, Objects: map[string][]float64{"x": {1, 2}}}
	b := &HeatTrace{Period: 1, Objects: map[string][]float64{"x": {1, 2}}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical traces must share a fingerprint")
	}
	c := &HeatTrace{Period: 1, Objects: map[string][]float64{"x": {1, 3}}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different heat must change the fingerprint")
	}
	d := &HeatTrace{
		Period:    1,
		Objects:   map[string][]float64{"x": {1, 2}},
		FastBytes: map[string][]float64{"x": {64, 64}},
		SlowBytes: map[string][]float64{"x": {256, 64}},
	}
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("byte channels must be covered by the fingerprint")
	}
}
