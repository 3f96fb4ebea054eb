package atmem

// This file is the overlapped placement pipeline: the runtime analogue
// of the paper's service threads, which profile and migrate while the
// application keeps computing. RunEpochAsync drives a
// one-interval-deep pipeline — the placement computed from epoch N's
// samples overlaps epoch N+1's phases — and reconciles the simulated
// clock at the join so only the non-hidden share of the migration (plus
// the bandwidth it steals from the kernels) is charged. The overlap is
// modelled in simulated time, not run on a second host thread: the
// placement lands on the caller's goroutine at the epoch's start, before
// the phases, and only its clock charge waits for the join. So an
// overlapped epoch is as deterministic as a stop-the-world one.

import (
	"context"
	"fmt"

	"atmem/internal/telemetry"
)

// RunEpochAsync is RunEpochCtx with overlapped placement: instead of
// stopping the world after the body to analyze and migrate, it runs
// the governed Optimize for the *previous* epoch's samples at the
// epoch's start, then the body, and at the join charges the clock only
// for what the body's phases could not hide (reconcileOverlap). The
// epoch's health passes run before the placement and after the join, as
// on every epoch. The first epoch of a run (nothing pending) overlaps
// nothing and just profiles; call DrainAsync after the last epoch to
// place the final interval's samples. Requires Options.Async.
//
// A cancelled ctx stops the placement at the next region or
// staging-slice boundary (rolled back, reported skipped); the epoch
// itself still completes and attributes its samples.
func (r *Runtime) RunEpochAsync(ctx context.Context, name string, body func()) (EpochReport, error) {
	if !r.opts.Governor.Enabled || !r.opts.Async {
		return EpochReport{}, fmt.Errorf("atmem: RunEpochAsync requires Options.Async")
	}
	return r.runEpoch(ctx, name, sourceOverlapped, body)
}

// reconcileOverlap settles the simulated clock at the epoch join. The
// body's phases already advanced the clock by their wall time; the
// overlapped migration's modelled seconds were deliberately not added
// by commitSchedule (it ran on the overlap track). Whatever part of the
// migration fits under the phases is hidden — that is the point of
// overlapping — except for stealFraction of it, charged
// back as the copy bandwidth stolen from the kernels; any excess beyond
// the phases' time surfaces in full, as it would on real hardware when
// the service threads outlive the interval.
func (r *Runtime) reconcileOverlap(rep *EpochReport) {
	var phaseS float64
	for _, p := range rep.Phases {
		phaseS += p.Stats.WallSeconds
	}
	migS := rep.Migration.Seconds
	overlap := migS
	if phaseS < overlap {
		overlap = phaseS
	}
	excess := migS - overlap
	stolen := overlap * stealFraction
	rep.OverlapSeconds = overlap
	rep.StolenSeconds = stolen
	r.overlapTotalS += overlap
	r.stolenTotalS += stolen
	r.simNS.Add(uint64((excess + stolen) * 1e9))
	if r.rec.Enabled() {
		r.rec.Instant(0, "placement", "overlap-reconcile", telemetry.Args{
			"epoch":       rep.Epoch,
			"migration_s": migS,
			"overlap_s":   overlap,
			"excess_s":    excess,
			"stolen_s":    stolen,
		})
		r.rec.Counter(0, "metric", "stolen-bandwidth", telemetry.Args{
			"overlap_s_total": r.overlapTotalS,
			"stolen_s_total":  r.stolenTotalS,
		})
	}
}

// DrainAsync places the samples still pending from the last
// RunEpochAsync, synchronously (stop-the-world: the full migration time
// is charged, and the end-to-end invariant checker — including object
// checksums — runs). Call it after the epoch loop so the final
// interval's heat is not dropped. It is a no-op returning a zero report
// when nothing is pending.
func (r *Runtime) DrainAsync(ctx context.Context) (MigrationReport, error) {
	if !r.opts.Governor.Enabled || !r.opts.Async {
		return MigrationReport{}, fmt.Errorf("atmem: DrainAsync requires Options.Async")
	}
	if r.pendingSamples == 0 {
		return MigrationReport{}, nil
	}
	period := r.pendingPeriod
	r.pendingSamples, r.pendingPeriod = 0, 0
	return r.optimizeGoverned(ctx, period, 0)
}

// OverlapSeconds returns the cumulative overlapped-migration seconds
// hidden under the phases so far.
func (r *Runtime) OverlapSeconds() float64 { return r.overlapTotalS }

// StolenSeconds returns the cumulative seconds charged to the simulated
// clock as bandwidth the overlapped copies stole from the kernels.
func (r *Runtime) StolenSeconds() float64 { return r.stolenTotalS }
