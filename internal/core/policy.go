package core

// This file defines the pluggable placement-policy interface the runtime
// ranks through, plus the non-analyzer built-ins: the frozen first-fit
// floor (static) and the full-trace hindsight ceiling (oracle). The
// paper's analyzer itself stays in analyze.go; AnalyzerPolicy is a thin
// adapter over it so the plans it emits are bit-identical to a direct
// AnalyzeObserved call.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// PolicyProfile is everything a placement policy may observe when asked
// to rank: the chunked object registry with its attributed per-chunk
// sample counters, the sampling period those counters were captured at
// (needed to scale counts back to priority units), and the breaker
// epoch the decision belongs to (1 for a runtime's first Optimize).
type PolicyProfile struct {
	Registry *Registry
	Period   uint64
	Epoch    int
}

// PlacementPolicy decides which byte ranges deserve the fast tier. Rank
// turns a profile and a capacity budget (bytes of fast memory available
// to the plan; 0 = unlimited) into a Plan of per-object ranges; the
// runtime migrates the plan, diffs it against residency on governed
// runs, and feeds its MarginalDensity into the multi-tenant hunger
// signal — so every policy must fill the plan's density fields when the
// budget clips it.
//
// Fingerprint must change whenever the policy's decisions could change
// (a different algorithm, different trained weights, a different oracle
// trace): it is folded into the compiled-plan signature, and a changed
// fingerprint is what invalidates cached plans.
//
// Rank is called on the control-plane goroutine with the registry
// quiescent; implementations must not retain the registry past the
// call.
type PlacementPolicy interface {
	// Name is the short human-readable policy name ("paper", "oracle",
	// "learned", "static", or "all-fast" / "prefer-fast" for the
	// paper's ideal references).
	Name() string
	// Fingerprint identifies the exact decision procedure for
	// plan-cache signatures.
	Fingerprint() string
	// Rank produces the placement plan for the profiled interval.
	Rank(p PolicyProfile, budgetBytes uint64, obs StageObserver) (*Plan, error)
}

// AnalyzerPolicy is the paper's two-stage analyzer (§4.2–§4.3) behind
// the PlacementPolicy interface. Rank delegates to AnalyzeObserved
// unchanged, so its plans are byte-identical to the pre-interface
// runtime's.
type AnalyzerPolicy struct {
	// Label overrides the reported name ("paper" when empty): the
	// paper's ideal references ("all-fast", "prefer-fast") are
	// differently-named instances of this same analyzer that differ
	// only in allocation-time placement.
	Label string
}

// Name implements PlacementPolicy.
func (a AnalyzerPolicy) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "paper"
}

// Fingerprint implements PlacementPolicy. All analyzer-backed names
// share one fingerprint: the decision procedure is identical, so a
// cached plan recorded under one of them replays under any other.
func (a AnalyzerPolicy) Fingerprint() string { return "analyzer/v1" }

// Rank implements PlacementPolicy by running the full analyzer
// pipeline.
func (a AnalyzerPolicy) Rank(p PolicyProfile, budgetBytes uint64, obs StageObserver) (*Plan, error) {
	return AnalyzeObserved(p.Registry, p.Period, budgetBytes, obs)
}

// chunkScores carries one policy's per-chunk verdicts for greedyPlan:
// Cand marks selectable chunks, Score orders the greedy fill (higher
// first), and Density is the reported per-byte priority in the
// analyzer's PR units (misses x period / byte) so MarginalDensity and
// ColdestKeptDensity stay comparable across policies — the broker
// arbiter compares them across tenants.
type chunkScores struct {
	Cand    [][]bool
	Score   [][]float64
	Density [][]float64
}

// newChunkScores allocates per-chunk slices shaped like the registry.
func newChunkScores(objs []*DataObject) chunkScores {
	cs := chunkScores{
		Cand:    make([][]bool, len(objs)),
		Score:   make([][]float64, len(objs)),
		Density: make([][]float64, len(objs)),
	}
	for i, o := range objs {
		cs.Cand[i] = make([]bool, o.NumChunks)
		cs.Score[i] = make([]float64, o.NumChunks)
		cs.Density[i] = make([]float64, o.NumChunks)
	}
	return cs
}

// greedyPlan builds a Plan by selecting candidate chunks in descending
// score order until budgetBytes is exhausted (0 = unlimited). A chunk
// that no longer fits is skipped and the scan continues with smaller
// chunks, so the budget fills as completely as chunk granularity
// allows; the hottest chunk denied sets MarginalDensity. Ties break on
// (address order), making the plan deterministic for equal scores.
func greedyPlan(objs []*DataObject, cs chunkScores, budgetBytes uint64, obs StageObserver) *Plan {
	plan := &Plan{
		Objects: make([]ObjectPlan, len(objs)),
		Budget:  budgetBytes,
	}
	type cref struct{ obj, chunk int }
	var cands []cref
	for i, o := range objs {
		plan.TotalBytes += o.Size
		plan.Objects[i] = ObjectPlan{
			Object: o,
			Local: LocalSelection{
				PR:       cs.Density[i],
				Critical: make([]bool, o.NumChunks),
			},
			Estimated: make([]bool, o.NumChunks),
		}
		var prSum float64
		for j := 0; j < o.NumChunks; j++ {
			prSum += cs.Density[i][j]
			if cs.Cand[i][j] {
				cands = append(cands, cref{i, j})
			}
		}
		if o.NumChunks > 0 {
			plan.Objects[i].Local.MeanPR = prSum / float64(o.NumChunks)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		sa := cs.Score[cands[a].obj][cands[a].chunk]
		sb := cs.Score[cands[b].obj][cands[b].chunk]
		if sa != sb {
			return sa > sb
		}
		if cands[a].obj != cands[b].obj {
			return cands[a].obj < cands[b].obj
		}
		return cands[a].chunk < cands[b].chunk
	})

	remaining := budgetBytes
	selected := 0
	for _, c := range cands {
		op := &plan.Objects[c.obj]
		bytes := op.Object.ChunkBytes(c.chunk)
		if budgetBytes != 0 && bytes > remaining {
			plan.ClippedBytes += bytes
			if plan.MarginalDensity == 0 {
				// cands iterate hottest-first, so the first denial is
				// the per-byte value one more byte of budget would buy.
				plan.MarginalDensity = cs.Density[c.obj][c.chunk]
			}
			continue
		}
		op.Local.Critical[c.chunk] = true
		op.Local.NumCritical++
		if budgetBytes != 0 {
			remaining -= bytes
		}
		selected++
	}
	for i := range plan.Objects {
		op := &plan.Objects[i]
		if op.Local.NumCritical == 0 {
			continue
		}
		var prSum float64
		for j, crit := range op.Local.Critical {
			if crit {
				prSum += op.Local.PR[j]
			}
		}
		op.Local.Weight = prSum / float64(op.Local.NumCritical)
	}

	buildRanges(plan)
	for i := range plan.Objects {
		for _, rg := range plan.Objects[i].Ranges {
			plan.SelectedBytes += rg.Size
			if plan.ColdestKeptDensity == 0 || rg.Density < plan.ColdestKeptDensity {
				plan.ColdestKeptDensity = rg.Density
			}
		}
	}
	if obs != nil {
		obs.StageBegin("clip")
		obs.StageEnd("clip", map[string]any{
			"selected_bytes": plan.SelectedBytes,
			"clipped_bytes":  plan.ClippedBytes,
			"budget_bytes":   plan.Budget,
		})
	}
	return plan
}

// readDensity returns chunk j's read-miss priority in PR units.
func readDensity(o *DataObject, j int, period uint64) float64 {
	b := o.ChunkBytes(j)
	if b == 0 {
		return 0
	}
	return float64(o.readSamples[j]) * float64(period) / float64(b)
}

// totalDensity returns chunk j's read+write miss priority in PR units.
func totalDensity(o *DataObject, j int, period uint64) float64 {
	b := o.ChunkBytes(j)
	if b == 0 {
		return 0
	}
	return float64(o.readSamples[j]+o.writeSamples[j]) * float64(period) / float64(b)
}

// StaticFirstFit is the naive floor: whole objects in registration
// order, first fit against the budget, frozen at the first Rank. It
// models the no-profiling baseline a programmer gets from placing
// "whatever was allocated first" on the fast tier and never revisiting
// the decision: objects registered after the freeze never enter the
// selection, and later epochs only re-clip the frozen ordering against
// the then-current budget (a shrunken budget drops the tail, it never
// re-ranks).
type StaticFirstFit struct {
	// frozen is the candidate ordering captured at the first Rank:
	// every chunk of every then-registered object, registration order.
	frozen []staticPick
}

type staticPick struct {
	object string
	chunk  int
}

// Name implements PlacementPolicy.
func (s *StaticFirstFit) Name() string { return "static" }

// Fingerprint implements PlacementPolicy. The freeze is runtime state,
// not configuration: two static policies make the same decisions on the
// same workload, so the fingerprint is constant.
func (s *StaticFirstFit) Fingerprint() string { return "static/v1" }

// Rank implements PlacementPolicy.
func (s *StaticFirstFit) Rank(p PolicyProfile, budgetBytes uint64, obs StageObserver) (*Plan, error) {
	objs := p.Registry.Objects()
	if s.frozen == nil {
		// Freeze on first sight: registration (ID) order, chunks in
		// address order within each object.
		byID := make([]*DataObject, len(objs))
		copy(byID, objs)
		sort.SliceStable(byID, func(a, b int) bool { return byID[a].ID < byID[b].ID })
		for _, o := range byID {
			for j := 0; j < o.NumChunks; j++ {
				s.frozen = append(s.frozen, staticPick{o.Name, j})
			}
		}
	}
	if obs != nil {
		obs.StageBegin("rank")
	}
	index := make(map[string]int, len(objs))
	for i, o := range objs {
		index[o.Name] = i
	}
	cs := newChunkScores(objs)
	for pos, pick := range s.frozen {
		i, ok := index[pick.object]
		if !ok || pick.chunk >= objs[i].NumChunks {
			continue
		}
		cs.Cand[i][pick.chunk] = true
		cs.Score[i][pick.chunk] = 1 / float64(1+pos)
	}
	// Selection ignores the profile entirely; the reported densities use
	// it so the plan's marginal/coldest signals stay truthful.
	for i, o := range objs {
		for j := 0; j < o.NumChunks; j++ {
			cs.Density[i][j] = readDensity(o, j, p.Period)
		}
	}
	if obs != nil {
		obs.StageEnd("rank", map[string]any{
			"objects":       len(objs),
			"frozen_chunks": len(s.frozen),
		})
	}
	return greedyPlan(objs, cs, budgetBytes, obs), nil
}

// HeatTrace is a full-profiling heat snapshot: per-chunk priority (PR
// units, reads + 2×writes — see SnapshotHeat for the writeback
// accounting) keyed by object name, captured with SnapshotHeat after a
// period-1 profiled iteration. It is the oracle policy's hindsight
// input and the learned policy's training label source.
type HeatTrace struct {
	// Period records the sampling period of the capture (1 for a true
	// full trace).
	Period uint64 `json:"period"`
	// Objects maps object name to per-chunk priority.
	Objects map[string][]float64 `json:"objects"`
	// FastBytes/SlowBytes are the optional measured device-byte channels
	// a full traffic capture (Runtime.TrafficTrace) records per chunk:
	// the bytes the chunk's traffic charges when resident on the fast
	// tier (one cache line per fetched or written-back line) versus on
	// the slow tier (access-grain amplified for random traffic). When
	// both are present, OraclePlacement maximizes the fast-access-share
	// ratio over them directly instead of ranking by the scalar heat.
	FastBytes map[string][]float64 `json:"fast_bytes,omitempty"`
	SlowBytes map[string][]float64 `json:"slow_bytes,omitempty"`
}

// SnapshotHeat captures the registry's attributed samples as a heat
// trace. Capture it after ProfilingStop on a period-1 run for a
// complete demand-miss record. Write misses count twice: the traffic
// the oracle maximizes is read+write+writeback, the writeback
// destination follows the dirty line's placement, and in steady state
// each write-missed line is evicted dirty about once per write miss —
// so a promoted write-heavy chunk earns the write miss AND the later
// writeback, while a read-only chunk earns its read misses alone.
func SnapshotHeat(r *Registry, period uint64) *HeatTrace {
	t := &HeatTrace{Period: period, Objects: make(map[string][]float64)}
	for _, o := range r.Objects() {
		heat := make([]float64, o.NumChunks)
		for j := 0; j < o.NumChunks; j++ {
			heat[j] = readDensity(o, j, period) + 2*writeDensity(o, j, period)
		}
		t.Objects[o.Name] = heat
	}
	return t
}

// Fingerprint hashes the trace content (sorted object names, float
// bits) so two oracles built from different traces never share a
// plan-cache signature.
func (t *HeatTrace) Fingerprint() string {
	h := fnv.New64a()
	names := make([]string, 0, len(t.Objects))
	for name := range t.Objects {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf [8]byte
	writeFloats := func(vs []float64) {
		for _, v := range vs {
			bits := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	for _, name := range names {
		h.Write([]byte(name))
		writeFloats(t.Objects[name])
		writeFloats(t.FastBytes[name])
		writeFloats(t.SlowBytes[name])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// OraclePlacement is the hindsight ceiling: it ranks chunks by their
// true heat from a full-trace recording of the same workload and fills
// the whole budget greedily, densest first. The fast-access share it
// achieves bounds what any online policy can reach at the same budget,
// up to chunk granularity and the second-order placement dependence of
// conflict traffic (which a refinement round — re-recording the trace
// under the oracle's own placement — absorbs; see the harness's policy
// shootout).
//
// When the trace carries the measured FastBytes/SlowBytes channels, the
// share is a ratio — promoting chunk c adds fast_c to the numerator and
// swaps slow_c for fast_c in the denominator — so the optimal per-byte
// ranking weight between the two terms, (1-θ)·fast + θ·slow, depends on
// the achieved share θ itself. Rank solves the fractional objective by
// Dinkelbach iteration: select greedily at the current θ, recompute the
// share that selection achieves, and repeat until θ fixes.
type OraclePlacement struct {
	// Trace is the recorded heat (required).
	Trace *HeatTrace
}

// Name implements PlacementPolicy.
func (o *OraclePlacement) Name() string { return "oracle" }

// Fingerprint implements PlacementPolicy: it covers the trace content,
// so a different recording invalidates cached plans.
func (o *OraclePlacement) Fingerprint() string {
	if o.Trace == nil {
		return "oracle/v1 trace=nil"
	}
	return "oracle/v1 trace=" + o.Trace.Fingerprint()
}

// Validate reports a missing or empty trace; the runtime surfaces it at
// construction.
func (o *OraclePlacement) Validate() error {
	if o.Trace == nil || len(o.Trace.Objects) == 0 {
		return fmt.Errorf("core: oracle policy requires a recorded heat trace")
	}
	return nil
}

// Rank implements PlacementPolicy.
func (o *OraclePlacement) Rank(p PolicyProfile, budgetBytes uint64, obs StageObserver) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	objs := p.Registry.Objects()
	if obs != nil {
		obs.StageBegin("rank")
	}
	cs := newChunkScores(objs)
	matched := 0
	theta := math.NaN()
	if len(o.Trace.FastBytes) > 0 && len(o.Trace.SlowBytes) > 0 {
		theta = o.solveShareRatio(objs, budgetBytes, cs, &matched)
	} else {
		for i, do := range objs {
			heat, ok := o.Trace.Objects[do.Name]
			if !ok {
				continue
			}
			matched++
			for j := 0; j < do.NumChunks && j < len(heat); j++ {
				if heat[j] <= 0 {
					continue
				}
				cs.Cand[i][j] = true
				cs.Score[i][j] = heat[j]
				cs.Density[i][j] = heat[j]
			}
		}
	}
	if obs != nil {
		info := map[string]any{
			"objects":        len(objs),
			"traced_objects": matched,
		}
		if !math.IsNaN(theta) {
			info["theta"] = theta
		}
		obs.StageEnd("rank", info)
	}
	return greedyPlan(objs, cs, budgetBytes, obs), nil
}

// solveShareRatio runs the Dinkelbach iteration over the trace's
// measured byte channels, fills cs with the converged weighting's
// densities, and returns the fixed-point θ (the share the hindsight
// selection predicts for itself).
func (o *OraclePlacement) solveShareRatio(objs []*DataObject, budgetBytes uint64, cs chunkScores, matched *int) float64 {
	type cand struct {
		i, j             int
		size, fast, slow float64
	}
	var cands []cand
	var slowTotal float64
	for i, do := range objs {
		fast, okF := o.Trace.FastBytes[do.Name]
		slow, okS := o.Trace.SlowBytes[do.Name]
		if !okF || !okS {
			continue
		}
		*matched++
		for j := 0; j < do.NumChunks && j < len(fast) && j < len(slow); j++ {
			slowTotal += slow[j]
			if fast[j] <= 0 && slow[j] <= 0 {
				continue
			}
			cands = append(cands, cand{i, j, float64(do.ChunkBytes(j)), fast[j], slow[j]})
		}
	}
	theta := 0.5
	density := func(c cand) float64 { return ((1-theta)*c.fast + theta*c.slow) / c.size }
	for iter := 0; iter < 16; iter++ {
		sort.Slice(cands, func(a, b int) bool { return density(cands[a]) > density(cands[b]) })
		var numer, slowKept float64
		slowKept = slowTotal
		remaining := float64(budgetBytes)
		for _, c := range cands {
			if c.size > remaining {
				continue
			}
			remaining -= c.size
			numer += c.fast
			slowKept -= c.slow
		}
		denom := numer + slowKept
		next := theta
		if denom > 0 {
			next = numer / denom
		}
		if math.Abs(next-theta) < 1e-9 {
			theta = next
			break
		}
		theta = next
	}
	for _, c := range cands {
		d := density(c)
		if d <= 0 {
			continue
		}
		cs.Cand[c.i][c.j] = true
		cs.Score[c.i][c.j] = d
		cs.Density[c.i][c.j] = d
	}
	return theta
}
