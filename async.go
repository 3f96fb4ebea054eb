package atmem

// This file is overlapped placement: the runtime analogue of the
// paper's service threads, which migrate while the application keeps
// computing. Overlap is a clock rule on the ordinary epoch. An
// overlapped epoch places exactly what a stop-the-world epoch places, at
// the same point (right after the body), but leaves the placement's
// modelled seconds pending instead of adding them to the simulated
// clock. The next epoch's join settles the pending charge against that
// epoch's phases (reconcileOverlap), as if the service threads had
// migrated while the phases ran. So every phase, health pass, breaker
// decision and reserve read sees the stop-the-world run's mapping; only
// SimSeconds differs.

import (
	"context"

	"atmem/internal/telemetry"
)

// RunEpochAsync is RunEpochCtx with overlapped placement: the epoch
// profiles its body and places its samples like RunEpochCtx (or replays
// the armed plan's schedule), but the placement's modelled seconds are
// charged only at the next epoch's join, and only for what that epoch's
// phases could not hide plus the bandwidth the copies steal from them
// (reconcileOverlap). Call DrainAsync after the last epoch to settle
// the final charge.
//
// A cancelled ctx stops the placement at the next region or
// staging-slice boundary (rolled back, reported skipped); the epoch
// itself still completes and attributes its samples.
func (r *Runtime) RunEpochAsync(ctx context.Context, name string, body func()) (EpochReport, error) {
	return r.runEpoch(ctx, name, true, body)
}

// reconcileOverlap settles, at an epoch's join, the charge the previous
// overlapped placement deferred. The body's phases already advanced the
// clock by their wall time. Whatever part of the migration fits under
// the phases is hidden — that is the point of overlapping — except for
// stealFraction of it, charged back as the copy bandwidth stolen from
// the kernels; any excess beyond the phases' time surfaces in full, as
// it would on real hardware when the service threads outlive the
// interval. It does nothing when no charge is pending.
func (r *Runtime) reconcileOverlap(rep *EpochReport) {
	migS := r.pendingS
	if migS == 0 {
		return
	}
	r.pendingS = 0
	var phaseS float64
	for _, p := range rep.Phases {
		phaseS += p.Stats.WallSeconds
	}
	overlap := min(migS, phaseS)
	excess := migS - overlap
	stolen := overlap * stealFraction
	rep.Overlapped = true
	rep.OverlapSeconds = overlap
	rep.StolenSeconds = stolen
	r.overlapTotalS += overlap
	r.stolenTotalS += stolen
	r.simNS.Add(uint64((excess + stolen) * 1e9))
	if r.rec.Enabled() {
		r.rec.Instant("placement", "overlap-reconcile", telemetry.Args{
			"epoch":       rep.Epoch,
			"migration_s": migS,
			"overlap_s":   overlap,
			"excess_s":    excess,
			"stolen_s":    stolen,
		})
		r.rec.Counter("metric", "stolen-bandwidth", telemetry.Args{
			"overlap_s_total": r.overlapTotalS,
			"stolen_s_total":  r.stolenTotalS,
		})
	}
}

// DrainAsync settles the clock charge the last RunEpochAsync deferred,
// in full: no epoch follows to hide it. Call it after the epoch loop; it
// does nothing when no charge is pending.
func (r *Runtime) DrainAsync() {
	r.simNS.Add(uint64(r.pendingS * 1e9))
	r.pendingS = 0
}

// OverlapSeconds returns the cumulative overlapped-migration seconds
// hidden under the phases so far.
func (r *Runtime) OverlapSeconds() float64 { return r.overlapTotalS }

// StolenSeconds returns the cumulative seconds charged to the simulated
// clock as bandwidth the overlapped copies stole from the kernels.
func (r *Runtime) StolenSeconds() float64 { return r.stolenTotalS }
