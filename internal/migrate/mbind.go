package migrate

import (
	"context"
	"fmt"

	"atmem/internal/memsim"
)

// MbindEngine models the system NUMA migration service (`mbind` +
// `migrate_pages`) that the paper uses as the migration baseline (§2.3,
// §7.3): a single-threaded, blocking, page-by-page mechanism. Every 4 KiB
// page pays kernel bookkeeping (rmap walk, page (un)mapping, refcount
// dance), the copy runs at single-thread bandwidth, transparent huge
// pages touched by the move are splintered, and each batch of unmapped
// pages triggers an inter-processor TLB shootdown.
type MbindEngine struct {
	// ShootdownBatchPages is how many pages the kernel unmaps between
	// TLB shootdown IPIs. 0 means 512 (one PMD's worth).
	ShootdownBatchPages int
	// Retry shapes the per-region retry ladder; the zero value is the
	// historical one-retry (two attempts) behaviour.
	Retry RetryPolicy
	// Sink, when non-nil, observes per-region attempt/rollback/outcome
	// events (see SetEventSink).
	Sink EventSink

	// target is the tier of the Migrate call in progress, stamped onto
	// every emitted event.
	target memsim.Tier
}

// Name implements Engine.
func (e *MbindEngine) Name() string { return "mbind" }

// SetEventSink implements Engine.
func (e *MbindEngine) SetEventSink(s EventSink) { e.Sink = s }

// emit sends ev to the sink, if any, stamped with the migration target.
func (e *MbindEngine) emit(ev Event) {
	if e.Sink != nil {
		ev.Target = e.target
		e.Sink(ev)
	}
}

// Migrate implements Engine. The kernel service is transactional per
// region by construction: the whole-region retier validates capacity
// before touching any page, so a failure leaves the region exactly where
// it was. Its degradation ladder has no staging buffer to shrink — a
// failed region gets one syscall-style retry and is then skipped, with
// the rest of the plan continuing. Huge pages splintered before a failed
// retier stay splintered, as they would under a real aborted
// migrate_pages.
func (e *MbindEngine) Migrate(ctx context.Context, sys *memsim.System, regions []Region, target memsim.Tier) (Stats, error) {
	e.target = target
	p := &sys.P
	batch := e.ShootdownBatchPages
	if batch <= 0 {
		batch = 512
	}
	st := Stats{Engine: e.Name()}
	for _, raw := range regions {
		r := alignRegion(raw)
		st.Regions++
		st.BytesRequested += r.Size
		if err := ctx.Err(); err != nil {
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
		src := target.Other()

		out := RegionOutcome{Region: r}
		var ferr error
		for {
			out.Attempts++
			e.emit(Event{Kind: EventAttempt, Region: r, Attempt: out.Attempts,
				Seconds: st.Seconds})
			if ferr = e.attemptRegion(sys, r, target, &st); ferr == nil {
				break
			}
			// The whole-region retier validates before touching pages, so
			// a failed attempt left the region in place (kernel-atomic).
			e.emit(Event{Kind: EventRollback, Region: r, Attempt: out.Attempts,
				Seconds: st.Seconds, Err: ferr})
			if e.Retry.Exhausted(out.Attempts, 2) {
				break
			}
		}
		if ferr != nil {
			out.Outcome = OutcomeSkipped
			out.Err = ferr
			st.recordOutcome(out)
			e.emit(Event{Kind: EventSkipped, Region: r, Attempt: out.Attempts,
				Seconds: st.Seconds, Err: ferr})
			continue
		}
		kind := EventMigrated
		if out.Attempts > 1 {
			out.Outcome = OutcomeRetried
			kind = EventRetried
		}
		st.recordOutcome(out)
		e.emit(Event{Kind: kind, Region: r, Attempt: out.Attempts,
			Seconds: st.Seconds})

		pages := int(moving / memsim.SmallPage)
		st.PagesMoved += pages
		st.BytesMoved += moving
		st.Moved = append(st.Moved, r)

		// Per-page syscall/bookkeeping cost, single-threaded copy.
		st.Seconds += float64(pages) * p.SyscallNSPerPage * 1e-9
		st.Seconds += copySecondsSingle(p, moving, src, target)

		shootdowns := (pages + batch - 1) / batch
		st.TLBShootdowns += shootdowns
		st.Seconds += float64(shootdowns) * p.TLBShootdownNS * 1e-9
	}
	return st, nil
}

// attemptRegion is one kernel-style migration attempt: splinter every
// huge mapping the range touches (the kernel path cannot migrate a THP
// as a unit), then retier the whole region atomically.
func (e *MbindEngine) attemptRegion(sys *memsim.System, r Region, target memsim.Tier, st *Stats) error {
	hugeBefore, _ := sys.PageTable().HugePages(r.Base, r.Size)
	if err := sys.Splinter(r.Base, r.Size); err != nil {
		return err
	}
	st.HugePagesSplit += hugeBefore / memsim.PagesPerHuge
	if err := sys.Retier(r.Base, r.Size, target); err != nil {
		return fmt.Errorf("migrate/mbind: %w", err)
	}
	return nil
}

// copySecondsSingle is the single-threaded kernel copy: one thread's
// memcpy bandwidth, further bounded by the devices (and channel sharing).
func copySecondsSingle(p *memsim.SystemParams, bytes uint64, src, dst memsim.Tier) float64 {
	if bytes == 0 {
		return 0
	}
	b := float64(bytes)
	single := p.CopySingleThreadGBs * 1e9
	if p.SharedChannels && src != dst {
		bus := b/(p.Tiers[src].ReadBWGBs*1e9) + b/(p.Tiers[dst].WriteBWGBs*1e9)
		th := b / single
		if th > bus {
			return th
		}
		return bus
	}
	bw := single
	if r := p.Tiers[src].ReadBWGBs * 1e9; r < bw {
		bw = r
	}
	if w := p.Tiers[dst].WriteBWGBs * 1e9; w < bw {
		bw = w
	}
	return b / bw
}
