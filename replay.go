package atmem

// This file is compiled-plan record/replay. The observation is the
// paper's §5 loop run twice: for a deterministic workload, the
// run's per-epoch placement decisions are a pure function of the
// workload signature, so a second run can skip profiling and analysis
// entirely and just execute the recorded migration schedule. Unimem
// makes the same observation for phase-local placement.
//
// The lifecycle on a runtime with Options.PlanCache:
//
//	sig := rt.BuildSignature(g.Name, g.CRC(), []string{"bfs", "pr"})
//	verdict, _ := rt.ArmPlan(sig)      // hit → replay; miss/stale → record
//	for each epoch { rt.RunEpoch(...) }
//	plan, _ := rt.FinishPlan()         // recording: cache the plan
//
// A signature mismatch is never replayed: a LookupStale verdict (same
// workload, different knobs/graph/threads) falls back to the online
// loop exactly like a miss, records a fresh plan under the new
// signature, and surfaces the staleness in the verdict and telemetry.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"atmem/internal/core"
	"atmem/internal/governor"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// Signature identifies the workload a compiled plan was recorded from.
// Two runs with equal signatures make identical placement decisions, so
// replaying the recorded schedule is sound; any field differing means
// the decisions could diverge and the plan must not be used.
type Signature struct {
	// Graph names the dataset; GraphCRC fingerprints its content (CSR
	// arrays), so a regenerated or relabelled graph under the same name
	// invalidates the plan.
	Graph    string
	GraphCRC uint32
	// Kernels is the ordered kernel set of the suite (comma-joined).
	Kernels string
	// Threads is the simulated thread count (placement interleaving and
	// sample staggering depend on it).
	Threads int
	// Testbed fingerprints the tier parameters (capacities, latencies,
	// line size) of the simulated machine.
	Testbed string
	// Policy fingerprints the placement knobs: policy, migration engine,
	// analyzer ε and chunk config, sampling period mode.
	Policy string
	// Governor fingerprints the governor config (watermarks, hysteresis,
	// breaker), which shapes demotion decisions.
	Governor string
	// Health fingerprints the tier-health state and policy (quarantine
	// generation, retired bytes, scrubber, scoreboard knobs). Pages
	// quarantined after a recording change the fast tier the plan was
	// recorded against, so the plan must go stale rather than replay a
	// promotion onto retired pages.
	Health string
}

// Key returns the strict cache key: every field participates.
func (s Signature) Key() string {
	return fmt.Sprintf("%s|%08x|%s|%d|%s|%s|%s|%s",
		s.Graph, s.GraphCRC, s.Kernels, s.Threads, s.Testbed, s.Policy, s.Governor, s.Health)
}

// workloadKey is the coarse identity — the workload a user would consider
// "the same run" — used to tell a plain cache miss from a stale plan.
func (s Signature) workloadKey() string {
	return s.Graph + "|" + s.Kernels
}

// CompiledPlan is a recorded run's committed placement: Epochs[e-1] is
// what epoch e committed, demotions and promotions each in commit order.
// Rolled-back and skipped regions never enter it, and an epoch that
// committed nothing keeps an empty schedule, so the numbering stays
// aligned with the bodies the caller runs. Every runtime that arms a
// cached plan shares it; it is never written after FinishPlan.
type CompiledPlan struct {
	Sig    Signature
	Epochs []PlanEpoch
}

// PlanEpoch is one recorded epoch: the schedule that committed, and the
// heat signal the recorded epoch's plan gave the broker's arbiter (see
// core.Plan). A replaying broker tenant reports the signal in place of
// the analysis it skips, so the arbiter can still grant it share.
type PlanEpoch struct {
	migrate.Schedule
	MarginalDensity    float64
	ColdestKeptDensity float64
}

// Regions returns the number of demoted plus promoted regions the plan
// replays.
func (p *CompiledPlan) Regions() int {
	n := 0
	for _, s := range p.Epochs {
		n += len(s.Demotions) + len(s.Promotions)
	}
	return n
}

// LookupVerdict classifies a PlanCache lookup.
type LookupVerdict int

const (
	// LookupHit: a plan recorded under the exact signature exists.
	LookupHit LookupVerdict = iota
	// LookupMiss: no plan for this workload at all.
	LookupMiss
	// LookupStale: a plan for the same workload (graph name + kernels)
	// exists, but a strict signature field differs — the cached schedule
	// was recorded under assumptions that no longer hold. Replaying it
	// would apply placement decisions from a different decision chain,
	// so the caller MUST fall back to the online loop; the verdict
	// exists so the fallback is observable, never silent.
	LookupStale
)

func (v LookupVerdict) String() string {
	switch v {
	case LookupHit:
		return "hit"
	case LookupMiss:
		return "miss"
	case LookupStale:
		return "stale"
	}
	return fmt.Sprintf("LookupVerdict(%d)", int(v))
}

// PlanCache is the cross-run store of compiled placement plans, keyed
// by strict signature, with a coarse workload index so lookups can
// distinguish "never recorded" from "recorded under different
// assumptions". Share one cache across the runtimes that should reuse
// each other's plans; it is safe for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	plans    map[string]*CompiledPlan
	workload map[string][]string // workloadKey -> strict keys present
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		plans:    make(map[string]*CompiledPlan),
		workload: make(map[string][]string),
	}
}

// Put stores a compiled plan under its signature, replacing any previous
// plan with the identical strict key.
func (c *PlanCache) Put(p *CompiledPlan) {
	key := p.Sig.Key()
	wk := p.Sig.workloadKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.plans[key]; !exists {
		c.workload[wk] = append(c.workload[wk], key)
	}
	c.plans[key] = p
}

// Lookup resolves a signature: LookupHit returns the plan; LookupMiss
// and LookupStale return nil, and the difference is the caller's
// fallback telemetry — a stale verdict means a plan for this workload
// exists but must not be replayed (see LookupStale).
func (c *PlanCache) Lookup(sig Signature) (*CompiledPlan, LookupVerdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[sig.Key()]; ok {
		return p, LookupHit
	}
	if len(c.workload[sig.workloadKey()]) > 0 {
		return nil, LookupStale
	}
	return nil, LookupMiss
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// BuildSignature derives the workload signature of the upcoming run:
// the dataset (name + content CRC), the ordered kernel set, the
// simulated thread count, the testbed's tier parameters, and every
// placement knob the decision chain depends on. Call it after the graph
// is loaded (the CRC must cover the exact bytes the kernels will walk).
func (r *Runtime) BuildSignature(graphName string, graphCRC uint32, kernels []string) Signature {
	return Signature{
		Graph:    graphName,
		GraphCRC: graphCRC,
		Kernels:  strings.Join(kernels, ","),
		Threads:  r.Threads(),
		Testbed:  r.testbedFingerprint(),
		Policy:   r.policyFingerprint(),
		Governor: r.govCfg.Fingerprint(),
		Health:   r.healthFingerprint(),
	}
}

// testbedFingerprint serializes the simulated machine parameters that
// shape placement: tier capacities and performance, line size, clock.
func (r *Runtime) testbedFingerprint() string {
	p := r.sys.P
	s := fmt.Sprintf("%s line=%d clk=%g shared=%t", p.Name, p.LineBytes, p.ClockGHz, p.SharedChannels)
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		s += fmt.Sprintf(" %s=%+v", t, p.Tiers[t])
	}
	return s
}

// policyFingerprint serializes every runtime knob that feeds the
// placement decision or the migration schedule: the placement policy's
// own fingerprint (PlacementPolicy.Fingerprint — this is what stales
// cached plans when the policy changes, e.g. retrained learned weights
// or a different oracle trace) plus the runtime-side knobs the policy
// ranks under. The analyzer config is included wholesale (%+v) so a new
// knob can never be forgotten here and replay a stale plan.
func (r *Runtime) policyFingerprint() string {
	return fmt.Sprintf("policy=%s engine=%s period=%d reserve=%d bw=%t analyzer=%+v",
		r.policy.Fingerprint(), r.opts.Mechanism, r.opts.SamplePeriod,
		r.opts.CapacityReserve, r.opts.BandwidthAware, r.opts.Analyzer)
}

// Replaying reports whether a cached plan is armed (epochs run under
// RunEpoch replay its schedule instead of profiling and analyzing).
func (r *Runtime) Replaying() bool { return r.armedPlan != nil }

// PlanVerdict returns the outcome of the last ArmPlan lookup.
func (r *Runtime) PlanVerdict() LookupVerdict { return r.planVerdict }

// ArmPlan resolves the signature against the plan cache and arms the
// runtime accordingly:
//
//   - LookupHit: subsequent RunEpoch calls replay the cached schedule —
//     no profiling, no analysis, no breaker; just the recorded
//     migrations, epoch by epoch, through the same admission step as
//     online placement, so a reserve raised since the recording or a
//     broker tenant's share clips the replayed promotions.
//   - LookupMiss / LookupStale: the run proceeds through the normal
//     online loop and records its committed placement decisions;
//     FinishPlan caches them. Stale means a plan for this
//     workload exists under different assumptions — it is deliberately
//     not replayed, and the verdict makes the fallback observable.
//
// ArmPlan requires Options.PlanCache and must run before the first
// epoch; solo runtimes and broker tenants arm alike. Stop-the-world and
// overlapped epochs record and replay alike: an overlapped epoch places
// what a stop-the-world one does and only defers the clock charge.
func (r *Runtime) ArmPlan(sig Signature) (LookupVerdict, error) {
	if r.planCache == nil {
		return LookupMiss, fmt.Errorf("atmem: ArmPlan requires Options.PlanCache")
	}
	if r.recording != nil || r.armedPlan != nil {
		return LookupMiss, fmt.Errorf("atmem: a plan is already armed; call FinishPlan first")
	}
	plan, verdict := r.planCache.Lookup(sig)
	r.planVerdict = verdict
	r.rec.Begin("plan", "arm", nil)
	r.rec.End("plan", "arm", telemetry.Args{
		"verdict": verdict.String(),
		"graph":   sig.Graph,
		"kernels": sig.Kernels,
	})
	if verdict == LookupHit {
		r.armedPlan = plan
		r.planEpoch = 0
		r.backlog = nil
		// A replayed run never profiles: drop the miss hooks so the
		// simulated miss path is a single nil test per miss.
		for _, a := range r.accessors {
			a.SetMissHook(nil)
		}
		return verdict, nil
	}
	r.recording = &CompiledPlan{Sig: sig}
	return verdict, nil
}

// FinishPlan closes the record/replay session opened by ArmPlan. After a
// recording run it stores the recorded plan in the cache and returns
// it; after a replay run it returns
// the plan that was replayed and restores the profiler hooks so the
// runtime can go back to online epochs.
func (r *Runtime) FinishPlan() (*CompiledPlan, error) {
	switch {
	case r.recording != nil:
		p := r.recording
		r.planCache.Put(p)
		r.recording = nil
		r.rec.Begin("plan", "compile", nil)
		r.rec.End("plan", "compile", telemetry.Args{
			"epochs":  len(p.Epochs),
			"regions": p.Regions(),
		})
		return p, nil
	case r.armedPlan != nil:
		p := r.armedPlan
		r.armedPlan, r.backlog = nil, nil
		for i, a := range r.accessors {
			a.SetMissHook(r.prof.ThreadSampler(i).OnMiss)
		}
		return p, nil
	}
	return nil, fmt.Errorf("atmem: FinishPlan without ArmPlan")
}

// applyPlanEpoch is the replay source's step after the body: commit
// one plan epoch's recorded schedule through the same admission step and
// commit path as the online loop, demotions first (they fund the
// promotions), each in the recorded order. The page table is the only
// record of residency, so under the recording's budget the final
// fast-resident footprint of a replay matches the recorded run bit for
// bit. Under a smaller one, what admit defers (clipped promotions,
// drained chunks) is the backlog, offered again ahead of later epochs'
// promotions less what their demotions give up, so the replay keeps
// reaching for the recorded residency. Epochs past the end of the
// recording replay an empty schedule and place only when a backlog or a
// budget cut asks them to; the first result reports whether they did.
func (r *Runtime) applyPlanEpoch(ctx context.Context, epoch int) (bool, MigrationReport, error) {
	// Serialize against co-tenants on a shared system, as the online
	// placement does.
	r.lockPlacement()
	defer r.unlockPlacement()
	epochs := r.armedPlan.Epochs
	budget, held := r.placementBudget()
	var rec PlanEpoch
	switch {
	case epoch <= len(epochs):
		rec = epochs[epoch-1]
	case len(r.backlog) == 0 && held <= budget:
		return false, MigrationReport{}, nil
	case len(epochs) > 0:
		last := epochs[len(epochs)-1]
		rec.MarginalDensity, rec.ColdestKeptDensity = last.MarginalDensity, last.ColdestKeptDensity
	}
	r.rec.Begin("replay", "apply-plan", telemetry.Args{"plan_epoch": epoch})

	// The schedule is a copy of the shared plan's entry; the backlog merge,
	// filterPromotions and admit build fresh slices, so nothing below
	// writes into the plan. The health veto applies on replay too: pages
	// quarantined since the recording must never receive a replayed
	// promotion.
	sched := rec.Schedule
	pending := slices.DeleteFunc(r.backlog, func(rg migrate.Region) bool {
		return overlapsAny(rg.Base, rg.Base+rg.Size, sched.Demotions)
	})
	sched.Promotions = r.filterPromotions(append(pending, sched.Promotions...))

	// Replay bypasses the breaker (the recorded run already paid for the
	// decisions) but reports through the same report shape.
	rep := MigrationReport{
		TotalBytes: r.reg.TotalBytes(),
		Epoch:      epoch,
		DeltaEmpty: sched.Empty(),
	}
	var cands []core.Candidate
	if held > budget {
		cands = r.residentChunks(sched.Demotions)
	}
	recorded := len(sched.Demotions)
	var deferred []migrate.Region
	sched, deferred, rep.ClippedBytes = r.admit(sched, budget, held, cands)
	r.backlog = append(deferred, sched.Demotions[recorded:]...)

	// The arbiter's signal is the recorded epoch's. When the budget
	// clipped the replay, the hunger is at least the recorded coldest
	// kept heat, since the recording kept every deferred region.
	marginal := rec.MarginalDensity
	if rep.ClippedBytes > 0 {
		marginal = max(marginal, rec.ColdestKeptDensity)
	}
	r.plan = &core.Plan{TotalBytes: rep.TotalBytes, ClippedBytes: rep.ClippedBytes,
		MarginalDensity: marginal, ColdestKeptDensity: rec.ColdestKeptDensity}

	res, err := r.commitSchedule(ctx, sched)
	rep.setSchedule(res)
	if err != nil {
		err = fmt.Errorf("atmem: replay migration: %w", err)
	} else {
		// Replayed promotions are health observations like online ones:
		// a storm that skips them must indict the failing granules.
		r.observeMigrationHealth(res)
	}
	r.endPlacement(&rep, true, governor.DecisionRun, 0)
	return true, rep, err
}

// residentChunks lists the registered objects' chunks that hold fast
// bytes, less those overlapping demotions, as the drain candidates of a
// replayed epoch over its budget. Replay has no heat to rank them by, so
// they run from the last registered object's last chunk backwards.
func (r *Runtime) residentChunks(demotions []migrate.Region) []core.Candidate {
	var out []core.Candidate
	objs := r.reg.Objects()
	for i := len(objs) - 1; i >= 0; i-- {
		o := objs[i]
		for j := o.NumChunks - 1; j >= 0; j-- {
			lo, hi := o.ChunkRange(j)
			if f := r.fastBytes(lo, hi-lo); f > 0 && !overlapsAny(lo, hi, demotions) {
				out = append(out, core.Candidate{Range: core.Range{Base: lo, Size: hi - lo}, FastBytes: f})
			}
		}
	}
	return out
}

// overlapsAny reports whether [lo, hi) overlaps any of the regions.
func overlapsAny(lo, hi uint64, regions []migrate.Region) bool {
	for _, rg := range regions {
		if lo < rg.Base+rg.Size && rg.Base < hi {
			return true
		}
	}
	return false
}

// recordCommitted appends one placement's committed regions to the
// recording's current epoch, and stores the heat signal of the plan it
// committed (no-op unless a recorder is armed). Only
// commits enter the plan: a replayed rollback or skip would
// desynchronize residency from the recording. A placement outside any
// epoch (an Optimize before the first one) has no schedule to join.
func (r *Runtime) recordCommitted(res migrate.ScheduleResult) {
	if r.recording == nil || len(r.recording.Epochs) == 0 {
		return
	}
	s := &r.recording.Epochs[len(r.recording.Epochs)-1]
	s.Demotions = append(s.Demotions, res.Demotions.Moved...)
	s.Promotions = append(s.Promotions, res.Promotions.Moved...)
	s.MarginalDensity, s.ColdestKeptDensity = r.plan.MarginalDensity, r.plan.ColdestKeptDensity
}
