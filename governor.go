package atmem

// This file is the runtime half of the epoch-adaptive placement
// governor (see internal/governor for the control mechanisms and
// internal/core's Advance for delta planning), which every runtime
// runs. A runtime re-optimizes repeatedly as the application's hot set drifts — the
// adaptive interval loop of the paper's §5 — and must do so without
// re-migrating data that is already placed, without erroring when the
// budget shrinks, and without hammering a failing migration path.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"atmem/internal/core"
	"atmem/internal/governor"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// EpochReport is the outcome of one Runtime.RunEpoch: the phases the
// body ran, the samples the epoch attributed, and the governed
// migration report.
type EpochReport struct {
	// Epoch is the 1-based runtime epoch number.
	Epoch int
	// Samples is how many profiler samples the epoch attributed to
	// registered objects.
	Samples int
	// Optimized reports whether the epoch ran the governed Optimize (a
	// zero-sample epoch carries no placement signal and keeps the
	// current placement without consulting the breaker).
	Optimized bool
	// Migration is the governed migration report (zero when Optimized
	// is false).
	Migration MigrationReport
	// Phases are the phases the epoch body ran, in order.
	Phases []PhaseResult
	// Overlapped reports whether the previous epoch's overlapped
	// placement (RunEpochAsync) left a clock charge that this epoch's
	// join settled against its phases.
	Overlapped bool
	// OverlapSeconds is how much of that placement's modelled time was
	// hidden under this epoch's phases.
	OverlapSeconds float64
	// StolenSeconds is the share of the hidden time charged back to the
	// simulated clock as bandwidth stolen from the running kernels.
	StolenSeconds float64
	// Replayed marks an epoch that executed a compiled plan's recorded
	// schedule instead of the profile→analyze→migrate loop (see
	// Runtime.ArmPlan).
	Replayed bool
}

// Epoch returns the current epoch count (epochs started so far).
func (r *Runtime) Epoch() int { return r.epoch }

// BreakerState returns the migration circuit breaker's current state.
func (r *Runtime) BreakerState() governor.State { return r.breaker.State() }

// BreakerTransitions returns every breaker state change so far, in
// order.
func (r *Runtime) BreakerTransitions() []governor.Transition {
	return r.breaker.Transitions()
}

// ResidentBytes returns the fast-tier bytes of every registered
// object, read from the simulator's page table.
func (r *Runtime) ResidentBytes() uint64 { return r.registeredFastBytes() }

// RunEpoch drives one adaptive interval: reset the per-epoch heat,
// profile the body (which runs its phases via RunPhase), then run the
// governed Optimize on the epoch's samples. A body that produced no
// attributable samples keeps the current placement — an idle interval
// carries no signal, so neither the hysteresis counters nor the breaker
// advance.
func (r *Runtime) RunEpoch(name string, body func()) (EpochReport, error) {
	return r.RunEpochCtx(context.Background(), name, body)
}

// RunEpochCtx is RunEpoch with a context: cancellation mid-plan makes
// the migration engine roll back the in-flight region and skip the rest
// of the schedule (the regions report OutcomeSkipped), leaving placement
// consistent. While a compiled plan is armed the epoch replays its
// recorded schedule instead of profiling and analyzing (see replay.go).
func (r *Runtime) RunEpochCtx(ctx context.Context, name string, body func()) (EpochReport, error) {
	return r.runEpoch(ctx, name, false, body)
}

// runEpoch is the one epoch bracket, stop-the-world or overlapped: count
// the epoch and open its span, run the start health pass, run the body
// between the placement source's before and after steps, run the end
// health pass, and close the epoch with its observer (endEpoch). The
// source is the online loop (profile the body, place its samples) or,
// while a plan is armed, replay (apply the recorded schedule). An
// overlapped epoch places exactly what a stop-the-world one does; it
// only defers the placement's clock charge to the next epoch's join
// (see async.go).
func (r *Runtime) runEpoch(ctx context.Context, name string, overlapped bool, body func()) (EpochReport, error) {
	replay := r.armedPlan != nil
	r.epoch++
	rep := EpochReport{Epoch: r.epoch, Replayed: replay}
	begin, end := telemetry.Args{"epoch": r.epoch}, telemetry.Args{"epoch": r.epoch}
	if overlapped {
		begin["async"] = true
	}
	if replay {
		begin["replay"], end["replay"] = true, true
	}
	r.rec.Begin("epoch", name, begin)
	phaseStart := len(r.phases)
	// The epoch's scorecard charges exactly the scrub time this epoch's
	// health passes add, so diff the cumulative charge across the epoch.
	scrubStart := r.scrubChargedNS

	// Epoch-start health pass: fire the fault schedule's epoch-driven
	// orders and scrub the fast-tier residency, so injected corruption is
	// detected and repaired before any kernel consumes it (see
	// health.go). The pass may migrate (emergency demotions), so it
	// takes the cross-tenant placement lock.
	r.lockPlacement()
	err := r.beginEpochHealth()
	r.unlockPlacement()
	if err != nil {
		r.drainTransitions()
		end["error"] = err.Error()
		r.rec.End("epoch", name, end)
		return rep, err
	}

	if replay {
		r.planEpoch++
	} else {
		// Each epoch ranks on its own interval's heat: stale samples from
		// previous intervals would anchor the old hot set and mask drift.
		r.reg.ResetSamples()
		r.ProfilingStart()
		// While a recorder is armed, every epoch opens a schedule in the
		// plan, which the commit path fills (recordCommitted). An epoch
		// that never reaches the commit point (zero samples, open
		// breaker, empty budget) keeps it empty, so the replayed epoch
		// numbering stays aligned with the bodies the caller runs.
		if r.recording != nil {
			r.recording.Epochs = append(r.recording.Epochs, PlanEpoch{})
		}
	}
	body()
	rep.Phases = append(rep.Phases, r.phases[phaseStart:]...)
	// The join: a charge the previous overlapped placement deferred is
	// settled against this body's phases.
	r.reconcileOverlap(&rep)
	r.overlapping = overlapped
	if replay {
		rep.Optimized, rep.Migration, err = r.applyPlanEpoch(ctx, r.planEpoch)
	} else if rep.Samples = r.ProfilingStop(); rep.Samples > 0 {
		rep.Optimized = true
		rep.Migration, err = r.optimizeGoverned(ctx)
	}
	r.overlapping = false

	// Epoch-end health pass: evacuate condemned granules and re-snapshot
	// the settled fast-tier residency for the next epoch's scrub.
	if err == nil {
		r.lockPlacement()
		err = r.endEpochHealth()
		r.unlockPlacement()
	}
	end["optimized"] = rep.Optimized
	if !replay {
		end["samples"] = rep.Samples
	}
	if rep.Overlapped {
		end["overlapped"] = true
	}
	r.endEpoch(name, end, &rep, scrubStart)
	return rep, err
}

// optimizeGoverned is the one placement function: Optimize and every
// online epoch run through it. It makes one breaker decision, diffs the
// fresh plan against the page table's fast tier (core.Advance), adds
// watermark-driven pressure demotions, and commits a mixed-direction
// schedule with demotions first, through the admission step. It builds
// its MigrationReport in place, and endPlacement completes and observes
// it on every return.
func (r *Runtime) optimizeGoverned(ctx context.Context) (rep MigrationReport, err error) {
	if !r.profiled {
		return rep, fmt.Errorf("atmem: Optimize before any profiled samples were attributed")
	}
	// Serialize against co-tenants on a shared system: the staging
	// reservations and the global reserved==0 invariant assume one
	// migration in flight at a time.
	r.lockPlacement()
	defer r.unlockPlacement()
	r.rec.Begin("optimize", "optimize", nil)

	decision := r.breaker.Decide()
	rep.Epoch = r.breaker.Epoch()
	var analyzeNS uint64
	defer func() { r.endPlacement(&rep, false, decision, analyzeNS) }()

	if decision == governor.DecisionSkip {
		// Open breaker: no analysis, no migration, hysteresis counters
		// frozen. The epoch still ran its phases on the degraded
		// placement; the cooldown was counted by Decide.
		rep.BreakerSkipped = true
		r.plan = &core.Plan{TotalBytes: r.reg.TotalBytes()}
		rep.Engine, rep.TotalBytes = r.engine.Name(), r.plan.TotalBytes
		return rep, nil
	}

	budget, held := r.placementBudget()
	// A runtime with no budget still runs the analyzer, with a 1-byte
	// budget (core treats 0 as unlimited): for a shed or fully-debited
	// tenant, or a reserve that swallowed the tier, the empty selection
	// lets the pressure demotions below drain its residency, and for a
	// tenant without a share the clipped plan's MarginalDensity is the
	// "I am hungry" signal the arbiter needs to grant it one.
	rankBudget := max(budget, 1)
	analyzeStart := time.Now()
	plan, err := r.policy.Rank(core.PolicyProfile{
		Registry: r.reg,
		Period:   r.prof.Config().Period,
		Epoch:    rep.Epoch,
	}, rankBudget, r.stageObserver())
	analyzeNS = uint64(time.Since(analyzeStart))
	if err != nil {
		return rep, err
	}
	if r.opts.BandwidthAware && !r.sys.P.SharedChannels {
		trimPlanForBandwidth(plan, &r.sys.P)
	}
	r.plan = plan
	rep.TotalBytes = plan.TotalBytes
	rep.SelectedBytes = plan.SelectedBytes
	rep.ClippedBytes = plan.ClippedBytes
	for i := range plan.Objects {
		rep.SampledBytes += plan.Objects[i].SampledBytes
		rep.EstimatedBytes += plan.Objects[i].EstimatedBytes
	}

	// Delta against the page table: promotions of the planned bytes not
	// yet fast, demotions of chunks cold for the whole hysteresis
	// window, plus the not-yet-expired cold chunks as pressure
	// candidates.
	delta, cands := core.Advance(plan, r.govCfg.DemoteAfterEpochs, r.fastBytes)
	var sched migrate.Schedule
	sched.Demotions, rep.PressureDemotedBytes, cands = r.pressureDemotions(delta, cands)
	for _, rg := range delta.Promotions {
		sched.Promotions = append(sched.Promotions, migrate.Region{Base: rg.Base, Size: rg.Size})
	}
	// Health veto: never promote onto quarantined or distrusted granules.
	sched.Promotions = r.filterPromotions(sched.Promotions)
	rep.DeltaEmpty = sched.Empty()

	if decision == governor.DecisionProbe && !sched.Empty() {
		// Half-open: probe with the single smallest region (a
		// promotion if there is one — it exercises the fast tier the
		// failures came from) instead of the whole schedule.
		if len(sched.Promotions) > 0 {
			sched = migrate.Schedule{Promotions: []migrate.Region{smallestRegion(sched.Promotions)}}
		} else {
			sched = migrate.Schedule{Demotions: []migrate.Region{smallestRegion(sched.Demotions)}}
		}
	}
	var clipped uint64
	sched, _, clipped = r.admit(sched, budget, held, cands)
	rep.ClippedBytes += clipped

	pre := r.objectChecksums()
	res, err := r.commitSchedule(ctx, sched)
	rep.setSchedule(res)
	if err != nil {
		// Unrecoverable (failed rollback): degrade the breaker and
		// surface the error.
		r.breaker.Observe(true)
		return rep, fmt.Errorf("atmem: migration: %w", err)
	}
	// Promotion outcomes are health observations: committed promotions
	// vouch for their target granules, skipped ones indict them.
	r.observeMigrationHealth(res)
	// Plan recording captures exactly what committed this epoch — the
	// decisions a replay must reproduce (see replay.go).
	r.recordCommitted(res)

	// A cancelled plan skips regions deliberately; that is the caller's
	// choice, not a failing migration path, so it must not trip the
	// breaker.
	r.breaker.Observe(res.Merged.RegionsSkipped > 0 && ctx.Err() == nil)
	if err := r.verifyMigrationInvariants(pre); err != nil {
		return rep, fmt.Errorf("atmem: post-migration invariant violated: %w", err)
	}
	return rep, nil
}

// placementBudget is the one source of the placement budget, for the
// analyzer and the admission step alike: the fast bytes the registered
// objects already hold (held, read from the page table) plus the free
// fast capacity, less CapacityReserve (saturating at 0), capped by the
// tenant's granted share (a solo runtime's share is the whole tier, so
// there the cap never binds). Re-selecting an already-resident
// chunk costs nothing, so identical samples reproduce the identical plan
// across epochs — the invariant that makes steady-state deltas empty. A
// reserve raised above the free capacity takes the difference out of
// held, so admit drains the resident set down to what the reserve
// leaves.
func (r *Runtime) placementBudget() (budget, held uint64) {
	held = r.registeredFastBytes()
	if avail := held + r.sys.FreeCapacity(memsim.TierFast); avail > r.opts.CapacityReserve {
		budget = avail - r.opts.CapacityReserve
	}
	// The granted share — already debited by this tenant's own
	// quarantined bytes, so one tenant's fault storm shrinks only its own
	// budget — caps the budget. Physical availability (what we hold plus
	// the global headroom) still bounds it from above.
	return min(budget, r.tenant.Budget()), held
}

// admit is the admission step every schedule passes before
// commitSchedule, online and replayed alike. It fits the schedule to the
// placementBudget it was measured against (budget, with held the
// registered fast bytes) and returns it with the promoted regions it
// deferred and the promoted bytes not yet fast that it clipped.
//
// When what stays fast after the demotions already exceeds the budget
// (a tenant whose share was cut or shed), it drains cands as demotions,
// in order, until what stays fits, and defers every promotion, so none
// re-promotes a drained chunk. Otherwise it clips the promotions in
// schedule order so that held, plus the promoted bytes not yet fast,
// minus the fast bytes the demotions release, fits the budget; a
// promotion that does not fit keeps its page-aligned head that does.
func (r *Runtime) admit(sched migrate.Schedule, budget, held uint64, cands []core.Candidate) (migrate.Schedule, []migrate.Region, uint64) {
	if len(sched.Promotions) == 0 && held <= budget {
		return sched, nil, 0
	}
	var released, clipped uint64
	var deferred []migrate.Region
	for _, rg := range sched.Demotions {
		released += r.fastBytes(rg.Base, rg.Size)
	}
	if held > budget+released {
		// Clip first: the append must never write into a recorded plan.
		sched.Demotions = slices.Clip(sched.Demotions)
		for _, c := range cands {
			if held <= budget+released {
				break
			}
			sched.Demotions = append(sched.Demotions, migrate.Region{Base: c.Range.Base, Size: c.Range.Size})
			released += c.FastBytes
		}
		for _, rg := range sched.Promotions {
			clipped += rg.Size - r.fastBytes(rg.Base, rg.Size)
		}
		deferred, sched.Promotions = sched.Promotions, nil
		return sched, deferred, clipped
	}
	room := budget + released - held
	out := make([]migrate.Region, 0, len(sched.Promotions))
	for _, rg := range sched.Promotions {
		need := rg.Size - r.fastBytes(rg.Base, rg.Size)
		if need > room {
			end := (rg.Base + room) &^ (memsim.SmallPage - 1)
			if end <= rg.Base {
				clipped += need
				deferred = append(deferred, rg)
				continue
			}
			headNeed := end - rg.Base - r.fastBytes(rg.Base, end-rg.Base)
			clipped += need - headNeed
			deferred = append(deferred, migrate.Region{Base: end, Size: rg.Base + rg.Size - end})
			rg.Size, need = end-rg.Base, headNeed
		}
		out = append(out, rg)
		room -= need
	}
	sched.Promotions = out
	return sched, deferred, clipped
}

// pressureDemotions returns the governed demotions: the delta's
// hysteresis demotions, then, if committing the delta would push
// occupancy over the high watermark, candidates coldest-first until the
// projection drains to the low watermark. This is what lets a hot-set
// shift or a budget cut proceed before hysteresis expires.
// It also returns the fast bytes the pressure candidates hold, and the
// candidates it left for admit to drain. Its ledger is occupancy, not
// the budget: the watermarks weigh the tenant's whole fast footprint
// (its memsim sub-ledger) against its quarantine-debited share, capped
// by the tier less the whole quarantine ledger, less the reserve, so
// pressure drains early, with hysteresis, into headroom the budget does
// not count. placementBudget alone bounds what a schedule may hold, and
// admit enforces it.
func (r *Runtime) pressureDemotions(delta core.Delta, cands []core.Candidate) (out []migrate.Region, pressureBytes uint64, rest []core.Candidate) {
	// Per-tenant watermarks: this tenant's fast footprint pressured
	// against its own (quarantine-debited) share, so a share cut or its
	// own fault storm drains this tenant's residency without touching
	// anyone else's. Quarantined pages are capacity the tier no longer
	// has, including those a freed object left behind (Free disowns
	// their debit), so the whole ledger caps the share: a shrunken tier
	// must still look pressured.
	fastCap := r.sys.P.Tiers[memsim.TierFast].CapacityBytes
	capEff := min(r.tenant.Budget(), fastCap-min(fastCap, r.sys.Quarantined()))
	committed := r.sys.TenantUsage(r.tenant.ID()).FastBytes
	if capEff > r.opts.CapacityReserve {
		capEff -= r.opts.CapacityReserve
	} else {
		capEff = 0
	}
	projected := committed + delta.PromoteBytes
	if projected > delta.DemoteBytes {
		projected -= delta.DemoteBytes
	} else {
		projected = 0
	}
	target := governor.DemotionTarget(projected, capEff,
		r.govCfg.HighWatermark, r.govCfg.LowWatermark)
	if capEff == 0 {
		// DemotionTarget treats zero capacity as "no signal"; here it
		// means the budget is gone entirely — drain everything.
		target = projected
	}
	for _, rg := range delta.Demotions {
		out = append(out, migrate.Region{Base: rg.Base, Size: rg.Size})
	}
	for len(cands) > 0 && pressureBytes < target {
		c := cands[0]
		cands = cands[1:]
		out = append(out, migrate.Region{Base: c.Range.Base, Size: c.Range.Size})
		pressureBytes += c.FastBytes
	}
	return out, pressureBytes, cands
}

// registeredFastBytes sums the fast-tier bytes of every registered
// object, from the simulator's ground-truth page table.
func (r *Runtime) registeredFastBytes() uint64 {
	var n uint64
	for _, do := range r.reg.Objects() {
		n += r.fastBytes(do.Base, do.Size)
	}
	return n
}

// fastBytes reports how many bytes of [base, base+size) the page table
// maps on the fast tier.
func (r *Runtime) fastBytes(base, size uint64) uint64 {
	return r.sys.BytesOnTier(base, size)[memsim.TierFast]
}

func smallestRegion(regions []migrate.Region) migrate.Region {
	best := regions[0]
	for _, rg := range regions[1:] {
		if rg.Size < best.Size {
			best = rg
		}
	}
	return best
}
