package atmem

// This file is the runtime half of compiled-plan record/replay (the
// compiler lives in internal/core/plancompile.go). The observation is
// the paper's §5 loop run twice: for a deterministic workload, the
// governed run's per-epoch placement decisions are a pure function of
// the workload signature, so a second run can skip profiling and
// analysis entirely and just execute the recorded migration schedule.
//
// The lifecycle on a governed runtime with Options.PlanCache:
//
//	sig := rt.BuildSignature(g.Name, g.CRC(), []string{"bfs", "pr"})
//	verdict, _ := rt.ArmPlan(sig)      // hit → replay; miss/stale → record
//	for each epoch { rt.RunEpoch(...) }
//	plan, _ := rt.FinishPlan()         // recording: compile + cache
//
// A signature mismatch is never replayed: a LookupStale verdict (same
// workload, different knobs/graph/threads) falls back to the online
// loop exactly like a miss, records a fresh plan under the new
// signature, and surfaces the staleness in the verdict and telemetry.

import (
	"context"
	"fmt"
	"strings"

	"atmem/internal/core"
	"atmem/internal/governor"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// BuildSignature derives the workload signature of the upcoming governed
// run: the dataset (name + content CRC), the ordered kernel set, the
// simulated thread count, the testbed's tier parameters, and every
// placement knob the decision chain depends on. Call it after the graph
// is loaded (the CRC must cover the exact bytes the kernels will walk).
func (r *Runtime) BuildSignature(graphName string, graphCRC uint32, kernels []string) core.Signature {
	return core.Signature{
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
func (r *Runtime) PlanVerdict() core.LookupVerdict { return r.planVerdict }

// ArmPlan resolves the signature against the plan cache and arms the
// runtime accordingly:
//
//   - LookupHit: subsequent RunEpoch calls replay the cached schedule —
//     no profiling, no analysis, no breaker; just the recorded
//     migrations, epoch by epoch.
//   - LookupMiss / LookupStale: the run proceeds through the normal
//     online loop and records its committed placement decisions;
//     FinishPlan compiles and caches them. Stale means a plan for this
//     workload exists under different assumptions — it is deliberately
//     not replayed, and the verdict makes the fallback observable.
//
// ArmPlan requires Options.PlanCache and Options.Governor.Enabled, the
// synchronous RunEpoch loop (the async pipeline commits an epoch's
// placement during the next epoch, which would shift the recorded
// schedule by one), and a solo runtime (a replayed promotion would
// bypass a broker tenant's share), and must run before the first epoch.
func (r *Runtime) ArmPlan(sig core.Signature) (core.LookupVerdict, error) {
	if r.planCache == nil {
		return core.LookupMiss, fmt.Errorf("atmem: ArmPlan requires Options.PlanCache")
	}
	if !r.opts.Governor.Enabled {
		return core.LookupMiss, fmt.Errorf("atmem: ArmPlan requires Options.Governor.Enabled")
	}
	if r.opts.Async.Enabled {
		return core.LookupMiss, fmt.Errorf("atmem: plan record/replay requires the synchronous RunEpoch loop (Options.Async must be off)")
	}
	if r.tenant != nil {
		return core.LookupMiss, fmt.Errorf("atmem: plan record/replay is not supported on a broker tenant (replayed promotions would bypass the tenant's share)")
	}
	if r.planRec != nil || r.armedPlan != nil {
		return core.LookupMiss, fmt.Errorf("atmem: a plan is already armed; call FinishPlan first")
	}
	plan, verdict := r.planCache.Lookup(sig)
	r.planVerdict = verdict
	r.rec.Begin(0, "plan", "arm", nil)
	r.rec.End(0, "plan", "arm", telemetry.Args{
		"verdict": verdict.String(),
		"graph":   sig.Graph,
		"kernels": sig.Kernels,
	})
	if verdict == core.LookupHit {
		r.armedPlan = plan
		r.planEpoch = 0
		// A replayed run never profiles: drop the miss hooks so the
		// simulated miss path is a single nil test per miss.
		for _, a := range r.accessors {
			a.SetMissHook(nil)
		}
		return verdict, nil
	}
	r.planRec = core.NewPlanRecorder(sig)
	return verdict, nil
}

// FinishPlan closes the record/replay session opened by ArmPlan. After a
// recording run it compiles the captured decisions into a CompiledPlan,
// stores it in the cache, and returns it; after a replay run it returns
// the plan that was replayed and restores the profiler hooks so the
// runtime can go back to online epochs.
func (r *Runtime) FinishPlan() (*core.CompiledPlan, error) {
	switch {
	case r.planRec != nil:
		p := r.planRec.Compile()
		r.planCache.Put(p)
		r.planRec = nil
		r.rec.Begin(0, "plan", "compile", nil)
		r.rec.End(0, "plan", "compile", telemetry.Args{
			"epochs": p.Epochs,
			"steps":  len(p.Steps),
		})
		return p, nil
	case r.armedPlan != nil:
		p := r.armedPlan
		r.armedPlan = nil
		for i, a := range r.accessors {
			a.SetMissHook(r.prof.ThreadSampler(i).OnMiss)
		}
		return p, nil
	}
	return nil, fmt.Errorf("atmem: FinishPlan without ArmPlan")
}

// applyPlanEpoch is the replay source's step after the body: execute
// one plan epoch's recorded schedule through the same commit path as the
// online loop, demotions first (they fund the promotions, the invariant
// the compiler encoded as dependency edges). The page table is the
// only record of residency, so the final fast-resident footprint of a
// replay matches the recorded run bit for bit.
func (r *Runtime) applyPlanEpoch(ctx context.Context, epoch int) (MigrationReport, error) {
	r.rec.Begin(0, "replay", "apply-plan", telemetry.Args{"plan_epoch": epoch})

	demos, promos := r.armedPlan.EpochSteps(epoch)
	sched := migrate.Schedule{}
	for _, st := range demos {
		sched.Demotions = append(sched.Demotions, migrate.Region{Base: st.Base, Size: st.Size})
	}
	for _, st := range promos {
		sched.Promotions = append(sched.Promotions, migrate.Region{Base: st.Base, Size: st.Size})
	}
	// The health veto applies on replay too: pages quarantined since the
	// recording must never receive a replayed promotion.
	sched.Promotions = r.filterPromotions(0, sched.Promotions)

	// Replay bypasses the breaker (the recorded run already paid for the
	// decisions) but reports through the same governed-report shape.
	r.plan = &core.Plan{TotalBytes: r.reg.TotalBytes()}
	rep := MigrationReport{
		TotalBytes: r.plan.TotalBytes,
		Epoch:      epoch,
		DeltaEmpty: sched.Empty(),
	}
	res, err := r.commitSchedule(ctx, 0, sched)
	rep.setSchedule(res, err == nil)
	if err != nil {
		err = fmt.Errorf("atmem: replay migration: %w", err)
	}
	r.endPlacement(0, &rep, true, governor.DecisionRun, 0)
	return rep, err
}

// PlanCache is the cross-run store of compiled placement plans. Share
// one cache across the runtimes that should reuse each other's plans
// (it is safe for concurrent use). Aliased from internal/core so
// callers outside the module can construct one.
type PlanCache = core.PlanCache

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache { return core.NewPlanCache() }

// recordCommitted feeds one epoch's committed regions to the armed
// recorder (no-op otherwise). Only commits enter the plan: a replayed
// rollback or skip would desynchronize residency from the recording.
func (r *Runtime) recordCommitted(promoted, demoted []migrate.Region) {
	if r.planRec == nil {
		return
	}
	toRanges := func(regs []migrate.Region) []core.Range {
		out := make([]core.Range, len(regs))
		for i, rg := range regs {
			out[i] = core.Range{Base: rg.Base, Size: rg.Size}
		}
		return out
	}
	r.planRec.RecordEpoch(toRanges(promoted), toRanges(demoted))
}
