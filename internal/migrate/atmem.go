package migrate

import (
	"context"
	"errors"
	"fmt"

	"atmem/internal/memsim"
)

// ATMemEngine is the multi-stage multi-threaded application-level
// migration of §4.4 (Figure 4).
type ATMemEngine struct {
	// Threads is the copy concurrency; 0 means use the system's thread
	// count.
	Threads int
	// StagingBytes caps the staging buffer; regions larger than this
	// are migrated in staging-sized slices so the mechanism works even
	// when the target tier is nearly full. 0 means 8 MiB.
	StagingBytes uint64
	// Retry shapes the per-region degradation ladder; the zero value is
	// the historical unbounded halving ladder down to one small page.
	Retry RetryPolicy
	// Sink, when non-nil, observes per-region attempt/rollback/outcome
	// events (see SetEventSink).
	Sink EventSink

	// target is the tier of the Migrate call in progress, stamped onto
	// every emitted event.
	target memsim.Tier
}

// Name implements Engine.
func (e *ATMemEngine) Name() string { return "atmem" }

// SetEventSink implements Engine.
func (e *ATMemEngine) SetEventSink(s EventSink) { e.Sink = s }

// emit sends ev to the sink, if any, stamped with the migration target.
func (e *ATMemEngine) emit(ev Event) {
	if e.Sink != nil {
		ev.Target = e.target
		e.Sink(ev)
	}
}

// Migrate implements Engine. For each region it stages the live values on
// the target memory with a parallel copy, remaps the region's virtual
// pages to fresh target-memory pages (splitting only the boundary huge
// pages when the region does not cover them fully — interior huge
// mappings survive, which preserves TLB reach), then copies the staged
// values back in parallel. Data crosses the inter-memory link once and
// moves once more within the target memory, exactly the two transfers the
// paper describes.
//
// Migration is transactional per region: a mid-region failure (staging
// reservation, remap) restores the region's pre-migration tier snapshot,
// then walks the degradation ladder — retry with the staging buffer
// halved, down to a single small page, and finally skip the region and
// continue with the rest of the plan. Skipped regions carry their last
// error in the Stats outcomes; only a failed rollback aborts the run.
func (e *ATMemEngine) Migrate(ctx context.Context, sys *memsim.System, regions []Region, target memsim.Tier) (Stats, error) {
	e.target = target
	p := &sys.P
	threads := e.Threads
	if threads <= 0 {
		threads = p.Threads
	}
	staging := e.StagingBytes
	if staging == 0 {
		staging = 8 << 20
	}
	staging = memsim.RoundUp(staging, memsim.SmallPage)

	st := Stats{Engine: e.Name()}
	for _, raw := range regions {
		r := alignRegion(raw)
		st.Regions++
		st.BytesRequested += r.Size
		if err := ctx.Err(); err != nil {
			// Cancelled between regions: the rest of the plan is
			// skipped without walking the degradation ladder.
			st.recordOutcome(RegionOutcome{Region: r, Outcome: OutcomeSkipped, Err: err})
			e.emit(Event{Kind: EventSkipped, Region: r, Seconds: st.Seconds, Err: err})
			continue
		}
		moving := movingBytes(sys, r, target)
		if moving == 0 {
			st.recordOutcome(RegionOutcome{Region: r, Outcome: OutcomeMigrated})
			e.emit(Event{Kind: EventMigrated, Region: r, Seconds: st.Seconds})
			continue
		}
		out, err := e.migrateRegion(ctx, sys, r, target, staging, threads, &st)
		st.recordOutcome(out)
		if err != nil {
			return st, err
		}
		if out.Outcome != OutcomeSkipped {
			st.BytesMoved += moving
			st.PagesMoved += int(moving / memsim.SmallPage)
			st.Moved = append(st.Moved, r)
		}
	}
	return st, nil
}

// migrateRegion drives one region down the degradation ladder: attempt
// the multi-stage copy at the given staging size; on failure (after the
// attempt rolled itself back) halve the staging buffer — a smaller
// transient reservation fits a tighter target tier — down to one small
// page, then give up and leave the region in its original placement.
func (e *ATMemEngine) migrateRegion(ctx context.Context, sys *memsim.System, r Region, target memsim.Tier, staging uint64, threads int, st *Stats) (RegionOutcome, error) {
	out := RegionOutcome{Region: r}
	for stg := staging; ; {
		out.Attempts++
		e.emit(Event{Kind: EventAttempt, Region: r, Attempt: out.Attempts,
			StagingBytes: stg, Seconds: st.Seconds})
		err := e.attemptRegion(ctx, sys, r, target, stg, threads, st)
		if err == nil {
			kind := EventMigrated
			if out.Attempts > 1 {
				out.Outcome = OutcomeRetried
				kind = EventRetried
			}
			e.emit(Event{Kind: kind, Region: r, Attempt: out.Attempts,
				StagingBytes: stg, Seconds: st.Seconds})
			return out, nil
		}
		out.Err = err
		if errors.Is(err, ErrRollback) {
			return out, err
		}
		// The failed attempt unwound itself (see attemptRegion); the
		// region is back on its pre-attempt placement.
		e.emit(Event{Kind: EventRollback, Region: r, Attempt: out.Attempts,
			StagingBytes: stg, Seconds: st.Seconds, Err: err})
		if ctx.Err() != nil {
			// Cancellation is not a capacity problem: retrying with a
			// smaller staging buffer cannot help, so skip directly.
			out.Outcome = OutcomeSkipped
			e.emit(Event{Kind: EventSkipped, Region: r, Attempt: out.Attempts,
				StagingBytes: stg, Seconds: st.Seconds, Err: err})
			return out, nil
		}
		next, more := e.Retry.NextStaging(stg)
		if !more || e.Retry.Exhausted(out.Attempts, 0) {
			out.Outcome = OutcomeSkipped
			e.emit(Event{Kind: EventSkipped, Region: r, Attempt: out.Attempts,
				StagingBytes: stg, Seconds: st.Seconds, Err: err})
			return out, nil
		}
		stg = next
	}
}

// attemptRegion runs one transactional migration attempt: it snapshots
// the region's tiers, then either completes every staging slice or
// restores the snapshot for the slices already remapped before returning
// the failure. Boundary huge pages split by a failed attempt are not
// re-merged — collapsing THPs back is khugepaged's job, not the unwind
// path's — which only costs TLB reach, never consistency.
func (e *ATMemEngine) attemptRegion(ctx context.Context, sys *memsim.System, r Region, target memsim.Tier, staging uint64, threads int, st *Stats) error {
	p := &sys.P
	src := target.Other()
	snap, err := sys.TierSnapshot(r.Base, r.Size)
	if err != nil {
		return err
	}

	// rollback restores the already-remapped prefix [r.Base, r.Base+done)
	// to its snapshot and returns cause; the restore is one batched
	// remap plus one shootdown. A failed restore is unrecoverable.
	rollback := func(done uint64, cause error) error {
		if done == 0 {
			return cause
		}
		if err := sys.RestoreTiers(r.Base, snap[:done/memsim.SmallPage]); err != nil {
			return fmt.Errorf("%w: %v (while handling: %v)", ErrRollback, err, cause)
		}
		st.Seconds += p.RemapNSPerRegion * 1e-9
		st.Seconds += p.TLBShootdownNS * 1e-9
		st.TLBShootdowns++
		return cause
	}

	// Boundary huge pages not fully covered by the region must be
	// split before a partial remap is possible; interior huge
	// mappings are remapped wholesale and stay huge.
	split, err := splitBoundaryHugePages(sys, r)
	st.HugePagesSplit += split
	if err != nil {
		return err // nothing remapped yet, nothing to roll back
	}

	for off := uint64(0); off < r.Size; off += staging {
		if err := ctx.Err(); err != nil {
			return rollback(off, fmt.Errorf("migrate/atmem: cancelled: %w", err))
		}
		slice := staging
		if off+slice > r.Size {
			slice = r.Size - off
		}
		if err := sys.Reserve(slice, target); err != nil {
			return rollback(off, fmt.Errorf("%w: %w", ErrStaging, err))
		}
		// Stage 1: parallel copy source region -> staging buffer
		// (staging lives on the target memory, Figure 4a).
		st.Seconds += copySeconds(p, slice, src, target, threads)
		// Stage 2: remap the virtual pages onto empty target pages (no
		// data moves, Figure 4b).
		if err := sys.Retier(r.Base+off, slice, target); err != nil {
			sys.Unreserve(slice, target)
			return rollback(off, fmt.Errorf("migrate/atmem: remap: %w", err))
		}
		st.Seconds += p.RemapNSPerRegion * 1e-9
		// One shootdown per remapped slice: every thread's stale
		// translation of the region must be dropped once.
		st.Seconds += p.TLBShootdownNS * 1e-9
		st.TLBShootdowns++
		// Stage 3: parallel copy staging buffer -> remapped
		// region, entirely within the target memory (Figure 4c).
		st.Seconds += copySeconds(p, slice, target, target, threads)
		sys.Unreserve(slice, target)
	}
	return nil
}

// splitBoundaryHugePages splinters the huge mappings that the region only
// partially covers — at most one at each end — returning how many were
// split. When both boundaries fall inside the same huge page it is split
// once.
func splitBoundaryHugePages(sys *memsim.System, r Region) (int, error) {
	pt := sys.PageTable()
	split := 0
	splitAt := func(addr uint64) error {
		page := addr &^ (memsim.HugePage - 1)
		if huge, _ := pt.HugePages(page, memsim.HugePage); huge == 0 {
			return nil
		}
		if err := sys.Splinter(page, memsim.HugePage); err != nil {
			return err
		}
		split++
		return nil
	}
	end := r.Base + r.Size
	if r.Base%memsim.HugePage != 0 {
		if err := splitAt(r.Base); err != nil {
			return split, err
		}
	}
	if end%memsim.HugePage != 0 {
		if err := splitAt(end - 1); err != nil {
			return split, err
		}
	}
	return split, nil
}
