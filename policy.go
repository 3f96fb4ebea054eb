package atmem

// This file is the public placement-policy surface: the PlacementPolicy
// interface (aliased from internal/core so policies and the analyzer
// share plan types), the paper's ideal references, and the
// constructors for the paper/oracle/learned/static quartet the policy
// shootout compares. Construction-time validation lives here too: New
// rejects nil or malformed policies with typed errors instead of
// failing at the first Malloc.

import (
	"errors"
	"fmt"
	"os"

	"atmem/internal/core"
)

// PlacementPolicy decides which byte ranges deserve the fast tier; see
// core.PlacementPolicy for the contract (Rank fills a plan against a
// byte budget; Fingerprint keys compiled-plan signatures). Install one
// with WithPlacementPolicy.
//
// A policy may additionally implement TierAllocator to steer where
// Malloc places new allocations, and Validate() error to be checked at
// runtime construction.
type PlacementPolicy = core.PlacementPolicy

// HeatTrace is a full-profiling heat snapshot (see core.SnapshotHeat
// and Runtime.SnapshotHeat) — the oracle policy's input and the learned
// policy's label source.
type HeatTrace = core.HeatTrace

// AllocMode is where a policy wants Malloc to place new allocations.
type AllocMode int

const (
	// AllocSlow places new objects on the large-capacity memory (the
	// ATMem default: data earns the fast tier through profiling).
	AllocSlow AllocMode = iota
	// AllocFast places new objects on the high-performance memory and
	// fails when it runs out.
	AllocFast
	// AllocPrefer fills the fast memory first and spills to the large
	// memory (`numactl -p` semantics).
	AllocPrefer
)

// TierAllocator is the optional interface a PlacementPolicy implements
// to control allocation-time placement. Policies without it allocate on
// the slow tier (AllocSlow).
type TierAllocator interface {
	AllocMode() AllocMode
}

// ErrNilPolicy reports an explicit WithPlacementPolicy(nil), surfaced
// by New at construction.
var ErrNilPolicy = errors.New("atmem: nil placement policy")

// analyzerPolicy is the paper's analyzer under a given name and
// allocation mode. PaperPolicy and the two ideal references share the
// Optimize-time analyzer (and so its fingerprint) and differ only in
// allocation-time placement.
type analyzerPolicy struct {
	core.AnalyzerPolicy
	mode AllocMode
}

// AllocMode implements TierAllocator.
func (b analyzerPolicy) AllocMode() AllocMode { return b.mode }

// PaperPolicy returns the paper's rank→threshold→promote analyzer
// (§4.2–§4.3) as a PlacementPolicy — the default. Objects start on the
// large memory and earn the fast tier through profiling and Optimize;
// without an Optimize call it is the paper's all-slow baseline (all-NVM,
// all-DDR4).
func PaperPolicy() PlacementPolicy {
	return analyzerPolicy{core.AnalyzerPolicy{Label: "paper"}, AllocSlow}
}

// AllFastPolicy returns the paper's NVM-DRAM ideal reference (all-DRAM):
// every allocation lands on the high-performance memory, and Malloc
// fails when it runs out.
func AllFastPolicy() PlacementPolicy {
	return analyzerPolicy{core.AnalyzerPolicy{Label: "all-fast"}, AllocFast}
}

// PreferFastPolicy returns the paper's MCDRAM-DRAM ideal reference
// (MCDRAM-p, `numactl -p`): allocations fill the high-performance
// memory first and spill to the large memory.
func PreferFastPolicy() PlacementPolicy {
	return analyzerPolicy{core.AnalyzerPolicy{Label: "prefer-fast"}, AllocPrefer}
}

// StaticPolicy returns the naive floor: whole objects in registration
// order, first fit against the budget, frozen at the first Optimize
// (see core.StaticFirstFit). Each call returns a fresh policy — the
// freeze is per-instance state, so do not share one across runtimes.
func StaticPolicy() PlacementPolicy {
	return &core.StaticFirstFit{}
}

// OraclePolicy returns the hindsight ceiling: placement ranked by true
// per-chunk traffic from a full-trace recording of the same workload
// (capture one with Runtime.TrafficTrace around a representative
// iteration; a sampled Runtime.SnapshotHeat works too but misranks
// prefetch-covered and grain-amplified chunks). Its fast-access share
// upper-bounds what any online policy reaches at the same budget.
func OraclePolicy(trace *HeatTrace) PlacementPolicy {
	return &core.OraclePlacement{Trace: trace}
}

// LearnedPolicy loads pairwise-ranker weights trained by atmem-train
// from a JSON file and returns the learned placement policy. Load or
// schema errors surface at New, not here.
func LearnedPolicy(path string) PlacementPolicy {
	data, err := os.ReadFile(path)
	if err != nil {
		return &brokenPolicy{name: "learned", err: fmt.Errorf("atmem: learned policy: %w", err)}
	}
	w, err := core.WeightsFromJSON(data)
	if err != nil {
		return &brokenPolicy{name: "learned", err: fmt.Errorf("atmem: learned policy %q: %w", path, err)}
	}
	return &core.LearnedRankPolicy{W: w, Source: path}
}

// LearnedPolicyFromWeights wraps already-loaded weights (e.g. trained
// in-process) as the learned placement policy.
func LearnedPolicyFromWeights(w core.Weights) PlacementPolicy {
	return &core.LearnedRankPolicy{W: w}
}

// brokenPolicy defers a construction-time failure (e.g. an unreadable
// weights file) to the runtime's Validate pass, so LearnedPolicy can
// keep a clean non-error signature while New still fails fast.
type brokenPolicy struct {
	name string
	err  error
}

func (b *brokenPolicy) Name() string        { return b.name }
func (b *brokenPolicy) Fingerprint() string { return b.name + "/broken" }
func (b *brokenPolicy) Validate() error     { return b.err }
func (b *brokenPolicy) Rank(core.PolicyProfile, uint64, core.StageObserver) (*core.Plan, error) {
	return nil, b.err
}

// validatePolicy checks the configured placement policy at
// construction: an explicit nil or a policy whose Validate fails (e.g.
// unreadable learned weights, an oracle without a trace) errors here,
// never at the first Malloc or Optimize.
func validatePolicy(pol PlacementPolicy) error {
	if pol == nil {
		return ErrNilPolicy
	}
	if v, ok := pol.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("atmem: placement policy %q: %w", pol.Name(), err)
		}
	}
	return nil
}

// SnapshotHeat captures the per-chunk heat of the samples attributed so
// far as a HeatTrace (call after ProfilingStop; use SamplePeriod 1 for
// a complete demand-miss record). The trace feeds OraclePolicy and the
// offline trainer's labels.
func (r *Runtime) SnapshotHeat() *HeatTrace {
	return core.SnapshotHeat(r.reg, r.prof.Config().Period)
}

// TrafficTrace runs body with full per-line traffic attribution enabled
// and returns the measured per-chunk placement value as a heat trace —
// the hindsight input OraclePolicy ranks on, and the training-label
// source for the learned policy.
//
// Unlike SnapshotHeat (the sampled demand-miss view an online policy
// sees), TrafficTrace measures the complete device-byte stream: demand
// misses, prefetch-covered stream fills the profiler can never observe,
// and dirty writebacks. Each event is recorded with its tier-neutral
// charges — one cache line if the chunk were fast, the slow tier's
// access grain (line-sized for coalesced streams) if it were slow — so
// the trace is comparable across placements and can be captured under
// any residency, including a refinement pass under a candidate plan.
// The scalar heat is (fastBytes + slowBytes) per byte of footprint;
// the per-tier channels feed the oracle's ratio objective. Sampled
// heat misranks exactly the chunks where the two charges diverge —
// sequential streams undercounted by prefetch coverage, random chunks
// whose slow-tier traffic is grain-amplified.
func (r *Runtime) TrafficTrace(body func()) *HeatTrace {
	objs := r.reg.Objects()
	idx := make(map[*core.DataObject]int, len(objs))
	for i, o := range objs {
		idx[o] = i
	}
	type buf struct {
		lines [][]uint64
		bytes [][]uint64
	}
	mk := func() *buf {
		b := &buf{lines: make([][]uint64, len(objs)), bytes: make([][]uint64, len(objs))}
		for i, o := range objs {
			b.lines[i] = make([]uint64, o.NumChunks)
			b.bytes[i] = make([]uint64, o.NumChunks)
		}
		return b
	}
	bufs := make([]*buf, len(r.accessors))
	for i, a := range r.accessors {
		b := mk()
		bufs[i] = b
		a.SetTrafficHook(func(addr uint64, bytes uint64, write bool) {
			o, j, ok := r.reg.Find(addr)
			if !ok {
				return
			}
			k := idx[o]
			b.lines[k][j]++
			b.bytes[k][j] += bytes
		})
	}
	body()
	for _, a := range r.accessors {
		a.SetTrafficHook(nil)
	}
	lineBytes := uint64(r.sys.P.LineBytes)
	t := &HeatTrace{
		Period:    1,
		Objects:   make(map[string][]float64, len(objs)),
		FastBytes: make(map[string][]float64, len(objs)),
		SlowBytes: make(map[string][]float64, len(objs)),
	}
	for i, o := range objs {
		heat := make([]float64, o.NumChunks)
		fast := make([]float64, o.NumChunks)
		slow := make([]float64, o.NumChunks)
		for j := 0; j < o.NumChunks; j++ {
			var lines, bytes uint64
			for _, b := range bufs {
				lines += b.lines[i][j]
				bytes += b.bytes[i][j]
			}
			// On the fast tier every fetched or written-back line charges
			// one cache line; the hook reports each event's hypothetical
			// slow-tier charge, independent of actual residency.
			fast[j] = float64(lineBytes * lines)
			slow[j] = float64(bytes)
			heat[j] = (fast[j] + slow[j]) / float64(o.ChunkBytes(j))
		}
		t.Objects[o.Name] = heat
		t.FastBytes[o.Name] = fast
		t.SlowBytes[o.Name] = slow
	}
	return t
}

// PlacementPolicy returns the runtime's placement policy.
func (r *Runtime) PlacementPolicy() PlacementPolicy { return r.policy }

// allocMode resolves the policy's allocation-time placement.
func (r *Runtime) allocMode() AllocMode {
	if ta, ok := r.policy.(TierAllocator); ok {
		return ta.AllocMode()
	}
	return AllocSlow
}
