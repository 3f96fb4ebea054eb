package atmem

// This file is the runtime half of the tier-health subsystem (the
// mechanisms live in internal/health, the quarantine ledger in
// internal/memsim). Every governed epoch — synchronous, overlapped or
// replayed — runs through the one epoch bracket (runEpoch in
// governor.go), which surrounds the body with two health passes:
//
//   - epoch start, before any kernel runs: fire the fault schedule's
//     data-plane orders (corruption byte-flips, latency degradation),
//     then walk the scrubber's CRC references over the fast-tier
//     residency. A mismatch is repaired from the scrubber's backup (the
//     modelled ECC/replica rebuild), the damaged chunk is emergency-
//     demoted through the transactional migration engine, and its pages
//     are retired into the quarantine ledger — so kernels never consume
//     corrupted bytes and the final results of a faulted run stay
//     bit-identical to a fault-free one.
//
//   - epoch end, after the epoch's migration: demote-and-retire any
//     granule the scoreboard condemned this epoch, then re-snapshot the
//     fast-resident chunks. Because nothing runs between the snapshot
//     and the next epoch's verify, a mismatch can only be injected
//     corruption — the scrubber has no false positives.
//
// The governed Optimize additionally treats quarantined bytes as
// capacity shrink (the ledger is charged inside memsim's capacity
// checks), vetoes promotions onto quarantined or distrusted granules,
// and feeds per-region migration outcomes back into the scoreboard.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// healthCounters accumulates the runtime's self-healing activity, the
// source of MigrationReport.Health.
type healthCounters struct {
	corruptedChunks    int // chunks hit by injected corruption orders
	emergencyDemotions int // chunks demoted by the scrub repair path
	promotionsVetoed   int // promotion stretches clipped out by trust checks
	retiredRanges      int // successful RetirePages calls
	degradeOrders      int // latency-degradation orders applied
	// pendingRetire holds ranges whose retirement failed (the evacuation
	// was skipped, e.g. under an active fault storm): the epoch-end heal
	// retries them until the pages can be evacuated and retired.
	pendingRetire []pendingRetire
}

// pendingRetire is one deferred page retirement.
type pendingRetire struct {
	base, size uint64
	reason     string
}

// HealthStats is a point-in-time snapshot of the whole tier-health
// subsystem, for the harness and tests.
type HealthStats struct {
	// Quarantined is the ledger total of retired fast-tier bytes.
	Quarantined uint64
	// QuarantinedRanges counts the ledger's disjoint ranges.
	QuarantinedRanges int
	// Scrub summarizes the scrubber (zero without WithScrubber).
	Scrub health.ScrubStats
	// Board summarizes the scoreboard (zero without health enabled).
	Board health.Stats
	// CorruptedChunks counts chunks hit by injected corruption orders.
	CorruptedChunks int
	// EmergencyDemotions counts chunks the scrub repair path demoted.
	EmergencyDemotions int
	// PromotionsVetoed counts promotion stretches clipped out because
	// they lay on quarantined pages or distrusted granules.
	PromotionsVetoed int
	// RetiredRanges counts successful page retirements.
	RetiredRanges int
	// DegradedRanges counts latency-degradation orders applied.
	DegradedRanges int
}

// HealthStats returns the current tier-health snapshot.
func (r *Runtime) HealthStats() HealthStats {
	hs := HealthStats{
		Quarantined:        r.sys.Quarantined(),
		QuarantinedRanges:  len(r.sys.QuarantinedRanges()),
		CorruptedChunks:    r.heal.corruptedChunks,
		EmergencyDemotions: r.heal.emergencyDemotions,
		PromotionsVetoed:   r.heal.promotionsVetoed,
		RetiredRanges:      r.heal.retiredRanges,
		DegradedRanges:     r.heal.degradeOrders,
	}
	if r.scrub != nil {
		hs.Scrub = r.scrub.Stats()
	}
	if r.board != nil {
		hs.Board = r.board.Stats()
	}
	return hs
}

// healthReport projects HealthStats onto the HealthReport a
// MigrationReport carries.
func (r *Runtime) healthReport() HealthReport {
	hs := r.HealthStats()
	return HealthReport{
		QuarantinedBytes:    hs.Quarantined,
		QuarantinedRanges:   hs.QuarantinedRanges,
		CorruptedChunks:     hs.CorruptedChunks,
		CorruptionsDetected: hs.Scrub.Detections,
		CorruptionsRepaired: hs.Scrub.Repairs,
		EmergencyDemotions:  hs.EmergencyDemotions,
		PromotionsVetoed:    hs.PromotionsVetoed,
		RetiredRanges:       hs.RetiredRanges,
		CondemnedGranules:   hs.Board.Condemned,
		SuspectGranules:     hs.Board.Suspect,
		ScrubbedBytes:       hs.Scrub.BytesScrubbed,
		DegradedRanges:      hs.DegradedRanges,
	}
}

// Scoreboard exposes the health scoreboard (nil unless Options.Health
// is enabled), for tests and the harness.
func (r *Runtime) Scoreboard() *health.Scoreboard { return r.board }

// healthPolicy returns the effective health policy.
func (r *Runtime) healthPolicy() health.Policy {
	if r.board != nil {
		return r.board.Policy()
	}
	return health.Policy{}.WithDefaults()
}

// healthFingerprint serializes the health state and policy a compiled
// plan's placement decisions depend on. The memsim health generation
// advances on every retirement or degradation, so a plan recorded on
// healthy memory goes stale the moment pages are quarantined — the
// cached schedule could otherwise replay a promotion onto retired
// pages.
func (r *Runtime) healthFingerprint() string {
	if r.board == nil && r.sys.HealthGen() == 0 {
		return "off"
	}
	pol := "off"
	if r.board != nil {
		pol = r.board.Policy().Fingerprint()
	}
	return fmt.Sprintf("gen=%d quar=%d scrub=%t policy=%s",
		r.sys.HealthGen(), r.sys.Quarantined(), r.scrub != nil, pol)
}

// beginEpochHealth runs the epoch-start health pass: advance the fault
// schedule's epoch clock and apply any corruption/degradation orders it
// fires, then scrub the fast-tier residency. Called before the epoch's
// body, so repairs land before kernels consume the data.
func (r *Runtime) beginEpochHealth() error {
	if r.board != nil {
		r.board.BeginEpoch()
	}
	if r.faults != nil {
		for _, ord := range r.faults.AdvanceEpoch() {
			r.applyFaultOrder(ord)
		}
	}
	if r.scrub != nil {
		if err := r.scrubPass(); err != nil {
			return err
		}
	}
	return nil
}

// endEpochHealth runs the epoch-end health pass: evacuate and retire
// granules the scoreboard condemned, then re-snapshot the fast-resident
// chunks so the next epoch's verify has a fresh reference.
func (r *Runtime) endEpochHealth() error {
	if err := r.retryPendingRetires(); err != nil {
		return err
	}
	if err := r.healCondemned(); err != nil {
		return err
	}
	r.snapshotScrub()
	return nil
}

// retryPendingRetires re-attempts retirements that failed in earlier
// epochs (typically because a fault storm made the evacuation skip):
// once the storm clears — or the occupying pages demote for any other
// reason — the condemned range must still end up in the ledger.
func (r *Runtime) retryPendingRetires() error {
	pending := r.heal.pendingRetire
	if len(pending) == 0 {
		return nil
	}
	r.heal.pendingRetire = nil
	for _, p := range pending {
		if err := r.evacuateAndRetire(p.base, p.size, p.reason); err != nil {
			return err
		}
	}
	return nil
}

// applyFaultOrder executes one epoch-driven data-plane fault order.
// Orders without an address range target the lowest-addressed fully
// fast-resident chunk — the faults model fast-tier hardware, so only
// fast-resident bytes can be hit.
func (r *Runtime) applyFaultOrder(ord faultinject.Order) {
	base, size := ord.Base, ord.Size
	if size == 0 {
		var ok bool
		base, size, ok = r.firstFastChunk()
		if !ok {
			return
		}
	}
	switch ord.Kind {
	case faultinject.Corrupt:
		n := r.corruptRange(base, size, ord.Seed)
		r.heal.corruptedChunks += n
		r.rec.Instant("health", "corrupt", telemetry.Args{
			"base": base, "bytes": size, "chunks_hit": n, "epoch": ord.Epoch,
		})
	case faultinject.Degrade:
		f := ord.Factor
		if f <= 1 {
			f = 4
		}
		r.sys.DegradeRange(base, size, f)
		r.heal.degradeOrders++
		r.rec.Instant("health", "degrade", telemetry.Args{
			"base": base, "bytes": size, "factor": f, "epoch": ord.Epoch,
		})
	}
}

// firstFastChunk returns the lowest-addressed registered chunk that is
// fully fast-resident.
func (r *Runtime) firstFastChunk() (base, size uint64, ok bool) {
	for _, do := range r.reg.Objects() {
		for j := 0; j < do.NumChunks; j++ {
			lo, hi := do.ChunkRange(j)
			if hi == lo {
				continue
			}
			if r.sys.BytesOnTier(lo, hi-lo)[memsim.TierFast] == hi-lo {
				return lo, hi - lo, true
			}
		}
	}
	return 0, 0, false
}

// corruptRange flips bytes, deterministically from seed, in the
// fast-resident scrub-tracked chunks overlapping [base, base+size) —
// the bytes a failing fast-tier device would damage. It returns how
// many chunks were hit. Without a scrubber the corruption lands on the
// first fast-resident page of the overlap per object (there is nothing
// to detect it with; tests use this to prove undetected corruption is
// possible when scrubbing is off).
func (r *Runtime) corruptRange(base, size uint64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	hit := 0
	flip := func(seg []byte) {
		if len(seg) == 0 {
			return
		}
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			seg[rng.Intn(len(seg))] ^= byte(1 + rng.Intn(255))
		}
	}
	if r.scrub != nil {
		for _, tr := range r.scrub.Tracked() {
			if tr.Base >= base+size || base >= tr.Base+tr.Size {
				continue
			}
			if o := r.objectContaining(tr.Base); o != nil && o.data != nil {
				flip(o.data[tr.Base-o.base : tr.Base-o.base+tr.Size])
				hit++
			}
		}
		return hit
	}
	for _, o := range r.Objects() {
		if o.data == nil {
			continue
		}
		lo, hi := max64(base, o.base), min64(base+size, o.base+o.size)
		for pa := lo &^ (memsim.SmallPage - 1); pa < hi; pa += memsim.SmallPage {
			if r.sys.BytesOnTier(pa, memsim.SmallPage)[memsim.TierFast] != memsim.SmallPage {
				continue
			}
			slo, shi := max64(pa, lo), min64(pa+memsim.SmallPage, hi)
			flip(o.data[slo-o.base : shi-o.base])
			hit++
			break // one page per object is damage enough
		}
	}
	return hit
}

// objectContaining returns the live object whose range covers addr.
func (r *Runtime) objectContaining(addr uint64) *Object {
	if do, _, ok := r.reg.Find(addr); ok {
		return r.objects[do.Base]
	}
	return nil
}

// scrubPass verifies every tracked chunk's CRC against its fast-tier
// bytes. Detections are repaired in place from the scrubber's backup,
// fed to the scoreboard as hard failures, and healed: the chunk is
// demoted through the transactional engine and its pages retired. The
// modelled scrub read time is charged to the simulated clock.
func (r *Runtime) scrubPass() error {
	before := r.scrub.Stats()
	for _, tr := range r.scrub.Tracked() {
		o := r.objectContaining(tr.Base)
		if o == nil || o.data == nil {
			r.scrub.Forget(tr.Base)
			continue
		}
		data := o.data[tr.Base-o.base : tr.Base-o.base+tr.Size]
		if r.scrub.Verify(tr.Base, data) {
			continue
		}
		// Detection: the backup restore already repaired the bytes;
		// now get the data off the bad pages and retire them.
		r.rec.Instant("health", "scrub-detect", telemetry.Args{
			"object": o.name, "base": tr.Base, "bytes": tr.Size,
		})
		if r.board != nil {
			r.board.ObserveFailure(tr.Base, tr.Size, "crc")
		}
		if err := r.evacuateAndRetire(tr.Base, tr.Size, "scrub"); err != nil {
			return err
		}
		r.heal.emergencyDemotions++
		r.scrub.Forget(tr.Base)
	}
	after := r.scrub.Stats()
	if gbs := r.healthPolicy().ScrubGBs; gbs > 0 {
		scanned := after.BytesScrubbed - before.BytesScrubbed
		chargedNS := uint64(float64(scanned) / (gbs * 1e9) * 1e9)
		r.simNS.Add(chargedNS)
		// The epoch scorecard's ScrubSeconds diffs this cumulative
		// charge across the epoch (see endEpoch).
		r.scrubChargedNS += chargedNS
	}
	return nil
}

// evacuateAndRetire demotes the page-aligned range off the fast tier
// through the migration engine (the engine's retry policy applies),
// then retires the pages into the quarantine ledger. A demotion that
// cannot complete leaves the pages unretired (quarantining mapped fast
// pages would corrupt the capacity ledger); only a failed rollback is
// an error.
func (r *Runtime) evacuateAndRetire(base, size uint64, reason string) error {
	alo := base &^ (memsim.SmallPage - 1)
	ahi := memsim.RoundUp(base+size, memsim.SmallPage)
	if r.sys.IsQuarantined(alo, ahi-alo) &&
		r.sys.BytesOnTier(alo, ahi-alo)[memsim.TierFast] == 0 {
		return nil
	}
	sched := migrate.Schedule{Demotions: []migrate.Region{{Base: alo, Size: ahi - alo}}}
	// Healing is not tied to a caller's epoch context: a cancelled epoch
	// must still leave damaged chunks evacuated.
	if _, err := r.commitSchedule(context.Background(), sched); err != nil {
		return fmt.Errorf("atmem: emergency demotion [%#x,+%#x): %w", alo, ahi-alo, err)
	}
	if err := r.sys.RetirePages(alo, ahi-alo); err != nil {
		// The demotion was skipped (e.g. a fault storm): the pages are
		// still mapped fast, so they cannot be retired yet. Surface the
		// condition and queue a retry for a later epoch's heal pass.
		r.rec.Instant("health", "retire-failed", telemetry.Args{
			"base": alo, "bytes": ahi - alo, "reason": reason, "error": err.Error(),
		})
		for _, p := range r.heal.pendingRetire {
			if p.base == alo && p.size == ahi-alo {
				return nil
			}
		}
		r.heal.pendingRetire = append(r.heal.pendingRetire, pendingRetire{base: alo, size: ahi - alo, reason: reason})
		return nil
	}
	r.heal.retiredRanges++
	r.rec.Instant("health", "retire", telemetry.Args{
		"base": alo, "bytes": ahi - alo, "reason": reason,
		"quarantined_total": r.sys.Quarantined(),
	})
	return nil
}

// healCondemned evacuates and retires every granule the scoreboard
// condemned since the last drain. The retire range is clipped to this
// runtime's own registered objects: health granules are address-space
// aligned, so on a broker-shared system a condemned granule can spill
// into a neighbouring tenant's allocations — retiring those would
// charge the quarantine debit to the wrong fault domain.
func (r *Runtime) healCondemned() error {
	if r.board == nil {
		return nil
	}
	for _, rg := range r.board.DrainCondemned() {
		for _, iv := range r.ownedOverlaps(rg.Base, rg.Size) {
			if err := r.evacuateAndRetire(iv.base, iv.size, "condemned"); err != nil {
				return err
			}
		}
	}
	return nil
}

type addrInterval struct{ base, size uint64 }

// ownedOverlaps intersects [base, base+size) with the runtime's live
// registered objects, in address order. Object bases and sizes are
// page-granular, so the intersections stay retirable as-is.
func (r *Runtime) ownedOverlaps(base, size uint64) []addrInterval {
	var out []addrInterval
	end := base + size
	for _, o := range r.Objects() {
		lo, hi := o.base, o.base+o.size
		if lo < base {
			lo = base
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			out = append(out, addrInterval{base: lo, size: hi - lo})
		}
	}
	return out
}

// snapshotScrub re-records CRC references and backups for every fully
// fast-resident chunk and forgets chunks that left the fast tier. Runs
// after the epoch's migration, when residency is settled and no kernel
// is mutating data — so verify-time mismatches can only be corruption.
func (r *Runtime) snapshotScrub() {
	if r.scrub == nil {
		return
	}
	live := make(map[uint64]bool)
	for _, o := range r.Objects() {
		if o.data == nil {
			continue
		}
		do := o.do
		for j := 0; j < do.NumChunks; j++ {
			lo, hi := do.ChunkRange(j)
			if hi == lo {
				continue
			}
			if r.sys.BytesOnTier(lo, hi-lo)[memsim.TierFast] != hi-lo {
				continue
			}
			live[lo] = true
			r.scrub.Snapshot(lo, o.data[lo-o.base:hi-o.base])
		}
	}
	for _, tr := range r.scrub.Tracked() {
		if !live[tr.Base] {
			r.scrub.Forget(tr.Base)
		}
	}
}

// trustedForPromotion reports whether a promotion target range is
// healthy: not overlapping the quarantine ledger and trusted by the
// scoreboard.
func (r *Runtime) trustedForPromotion(base, size uint64) bool {
	if r.sys.IsQuarantined(base, size) {
		return false
	}
	if r.board != nil && !r.board.Trusted(base, size) {
		return false
	}
	return true
}

// filterPromotions clips promotion regions to their trusted parts: each
// stretch on quarantined pages or distrusted granules is vetoed, counted
// and traced, and the rest of the region is still promoted. The vetoed
// stretches stay on the slow tier; the scoreboard's backoff decides when
// they may be retried.
func (r *Runtime) filterPromotions(promos []migrate.Region) []migrate.Region {
	var out []migrate.Region
	for _, rg := range promos {
		if r.trustedForPromotion(rg.Base, rg.Size) {
			out = append(out, rg)
			continue
		}
		next := rg.Base // first byte neither kept nor vetoed yet
		for _, bad := range r.untrustedStretches(rg.Base, rg.Size) {
			if bad.base > next {
				out = append(out, migrate.Region{Base: next, Size: bad.base - next})
			}
			r.heal.promotionsVetoed++
			r.rec.Instant("health", "promotion-vetoed", telemetry.Args{
				"base": bad.base, "bytes": bad.size,
			})
			next = bad.base + bad.size
		}
		if end := rg.Base + rg.Size; next < end {
			out = append(out, migrate.Region{Base: next, Size: end - next})
		}
	}
	return out
}

// untrustedStretches returns the parts of [base, base+size) on
// quarantined pages or distrusted granules, merged and in address order.
// Each stretch is widened to whole pages, so what is left of a
// page-aligned region stays page-aligned.
func (r *Runtime) untrustedStretches(base, size uint64) []addrInterval {
	end := base + size
	var bad []addrInterval
	add := func(lo, hi uint64) {
		lo = max64(lo&^(memsim.SmallPage-1), base)
		hi = min64(memsim.RoundUp(hi, memsim.SmallPage), end)
		if lo < hi {
			bad = append(bad, addrInterval{base: lo, size: hi - lo})
		}
	}
	for _, q := range r.sys.QuarantinedRanges() {
		add(q.Base, q.Base+q.Size)
	}
	if r.board != nil {
		g := r.board.Policy().GranuleBytes
		for key := base &^ (g - 1); key < end; key += g {
			if !r.board.Trusted(key, g) {
				add(key, key+g)
			}
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].base < bad[j].base })
	merged := bad[:0]
	for _, iv := range bad {
		if n := len(merged); n > 0 && iv.base <= merged[n-1].base+merged[n-1].size {
			last := &merged[n-1]
			last.size = max64(last.size, iv.base+iv.size-last.base)
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// observeMigrationHealth feeds one epoch's promotion outcomes to the
// scoreboard: a committed promotion is a successful use of the target
// granules, a skipped one a failure. Demotion failures are not scored —
// they indict the slow tier's staging, not the fast granules health
// tracks.
func (r *Runtime) observeMigrationHealth(res migrate.ScheduleResult) {
	if r.board == nil {
		return
	}
	for _, out := range res.Promotions.Outcomes {
		if out.Outcome == migrate.OutcomeSkipped {
			r.board.ObserveFailure(out.Region.Base, out.Region.Size, "migration")
		} else {
			r.board.ObserveSuccess(out.Region.Base, out.Region.Size)
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
