package atmem

import (
	"fmt"

	"atmem/internal/memsim"
	"atmem/internal/migrate"
)

// PhaseResult is the outcome of one RunPhase: the simulated execution
// time and the aggregated memory-system events.
type PhaseResult struct {
	// Name labels the phase ("iter1", "bfs-root-4", ...).
	Name string
	// Stats holds the reduced simulator statistics.
	Stats memsim.PhaseStats
}

// Seconds returns the phase's simulated wall time.
func (p PhaseResult) Seconds() float64 { return p.Stats.WallSeconds }

func (p PhaseResult) String() string {
	s := fmt.Sprintf("%s: %.6fs (lat %.6fs, bw %.6fs, %d misses, %d TLB misses)",
		p.Name, p.Stats.WallSeconds, p.Stats.LatencySeconds,
		p.Stats.BandwidthSeconds, p.Stats.LLCMisses, p.Stats.TLBMisses)
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		rd, wr, wb := p.Stats.ReadBytes[t], p.Stats.WriteBytes[t], p.Stats.WritebackBytes[t]
		if rd == 0 && wr == 0 && wb == 0 {
			continue
		}
		s += fmt.Sprintf("; %s r/w/wb %d/%d/%d B", t, rd, wr, wb)
	}
	return s
}

// MigrationReport summarizes one Optimize call: what the analyzer
// selected and what the migration engine did.
type MigrationReport struct {
	// Engine names the migration mechanism used.
	Engine string
	// Seconds is the modelled migration time.
	Seconds float64
	// BytesMoved is the volume that changed tier.
	BytesMoved uint64
	// PagesMoved counts migrated 4 KiB pages.
	PagesMoved int
	// Regions counts contiguous migrated regions.
	Regions int
	// HugePagesSplit counts 2 MiB mappings splintered by the engine.
	HugePagesSplit int
	// TLBShootdowns counts modelled shootdown IPIs.
	TLBShootdowns int
	// RegionsMigrated, RegionsRetried, and RegionsSkipped classify the
	// per-region outcomes of the transactional migration: first-try
	// successes, successes after the degradation ladder (rollback +
	// staging-shrink retries), and regions left on their original tier
	// after every rung failed. They sum to Regions.
	RegionsMigrated int
	RegionsRetried  int
	RegionsSkipped  int
	// SkippedBytes is the volume the skipped regions left behind.
	SkippedBytes uint64
	// TotalBytes is the registered data footprint.
	TotalBytes uint64
	// SelectedBytes is the plan's fast-memory selection.
	SelectedBytes uint64
	// SampledBytes and EstimatedBytes split the selection by origin:
	// sampled-critical chunks vs. tree-promoted chunks (§4.3).
	SampledBytes   uint64
	EstimatedBytes uint64
	// ClippedBytes is what the placement budget dropped: the analyzer's
	// capacity clip plus the promoted bytes the admission step clipped
	// from the schedule (on a replayed epoch, only the latter).
	ClippedBytes uint64

	// Epoch is the breaker epoch this report belongs to (1-based; a
	// replayed report carries the plan epoch).
	Epoch int
	// Breaker is the circuit breaker's state after the placement
	// ("closed", "open", "half-open").
	Breaker string
	// BreakerSkipped marks an epoch the open breaker skipped: no
	// analysis or migration ran.
	BreakerSkipped bool
	// DeltaEmpty marks a converged epoch: the plan matched residency
	// (or the replayed schedule was empty) and nothing needed to move.
	DeltaEmpty bool
	// PromotedBytes and DemotedBytes split BytesMoved by direction.
	PromotedBytes uint64
	DemotedBytes  uint64
	// RegionsDemoted counts committed demotion regions (hysteresis
	// expiries plus pressure demotions).
	RegionsDemoted int
	// PressureDemotedBytes is the slice of the demotion schedule the
	// watermarks forced ahead of hysteresis expiry.
	PressureDemotedBytes uint64
	// ResidentBytes is the fast-tier footprint of the registered
	// objects after the epoch, read from the page table.
	ResidentBytes uint64

	// Health summarizes the tier-health subsystem (zero unless faults,
	// health, or the scrubber are active).
	Health HealthReport
}

// HealthReport is the tier-health slice of a MigrationReport: the
// quarantine ledger, scrubber activity, and self-healing actions
// accumulated over the runtime's lifetime (cumulative, not per-epoch —
// the ledger only grows).
type HealthReport struct {
	// QuarantinedBytes is the fast-tier capacity retired so far;
	// QuarantinedRanges counts the ledger's disjoint ranges.
	QuarantinedBytes  uint64
	QuarantinedRanges int
	// CorruptedChunks counts chunks hit by injected corruption orders;
	// CorruptionsDetected and CorruptionsRepaired count the scrubber's
	// CRC mismatches and backup restores.
	CorruptedChunks     int
	CorruptionsDetected int
	CorruptionsRepaired int
	// EmergencyDemotions counts chunks the scrub repair path demoted off
	// failing fast pages.
	EmergencyDemotions int
	// PromotionsVetoed counts promotion stretches clipped out because
	// they lay on quarantined pages or distrusted granules.
	PromotionsVetoed int
	// RetiredRanges counts successful page retirements.
	RetiredRanges int
	// CondemnedGranules and SuspectGranules are the scoreboard's current
	// persistent-bad and in-backoff counts.
	CondemnedGranules int
	SuspectGranules   int
	// ScrubbedBytes totals the scrubber's verify traffic.
	ScrubbedBytes uint64
	// DegradedRanges counts latency-degradation orders applied.
	DegradedRanges int
}

// Active reports whether the health subsystem did anything worth
// printing.
func (h HealthReport) Active() bool {
	return h != HealthReport{}
}

// DataRatio is SelectedBytes/TotalBytes — the x-axis of Figures 7–10.
func (m MigrationReport) DataRatio() float64 {
	if m.TotalBytes == 0 {
		return 0
	}
	return float64(m.SelectedBytes) / float64(m.TotalBytes)
}

// Degraded reports whether any region needed the degradation ladder —
// the migration completed, but not entirely on the first-try fast path.
func (m MigrationReport) Degraded() bool {
	return m.RegionsRetried > 0 || m.RegionsSkipped > 0
}

func (m MigrationReport) String() string {
	s := fmt.Sprintf("%s: moved %d bytes (%d regions, %d pages) in %.6fs; ratio %.3f (sampled %d + estimated %d)",
		m.Engine, m.BytesMoved, m.Regions, m.PagesMoved, m.Seconds,
		m.DataRatio(), m.SampledBytes, m.EstimatedBytes)
	if m.Degraded() {
		s += fmt.Sprintf("; degraded: %d retried, %d skipped (%d bytes left behind)",
			m.RegionsRetried, m.RegionsSkipped, m.SkippedBytes)
	}
	if m.Breaker != "" {
		s += fmt.Sprintf("; epoch %d breaker %s", m.Epoch, m.Breaker)
		switch {
		case m.BreakerSkipped:
			s += " (migration skipped)"
		case m.DeltaEmpty:
			s += " (delta empty)"
		default:
			s += fmt.Sprintf(" (+%d/-%d bytes, %d resident)",
				m.PromotedBytes, m.DemotedBytes, m.ResidentBytes)
		}
	}
	if h := m.Health; h.Active() {
		s += fmt.Sprintf("; health: %d B quarantined (%d ranges), %d corruptions detected/%d repaired, %d emergency demotions, %d promotions vetoed",
			h.QuarantinedBytes, h.QuarantinedRanges,
			h.CorruptionsDetected, h.CorruptionsRepaired,
			h.EmergencyDemotions, h.PromotionsVetoed)
	}
	return s
}

// setSchedule fills the report's migration fields from one committed
// schedule's stats, merged and per direction. It is the one reader of a
// ScheduleResult for both placement paths (optimizeGoverned and
// applyPlanEpoch).
func (m *MigrationReport) setSchedule(res migrate.ScheduleResult) {
	st := &res.Merged
	m.Engine = st.Engine
	m.Seconds = st.Seconds
	m.BytesMoved = st.BytesMoved
	m.PagesMoved = st.PagesMoved
	m.Regions = st.Regions
	m.HugePagesSplit = st.HugePagesSplit
	m.TLBShootdowns = st.TLBShootdowns
	m.RegionsMigrated = st.RegionsMigrated
	m.RegionsRetried = st.RegionsRetried
	m.RegionsSkipped = st.RegionsSkipped
	for _, out := range st.Outcomes {
		if out.Outcome == migrate.OutcomeSkipped {
			m.SkippedBytes += out.Region.Size
		}
	}
	m.PromotedBytes = res.Promotions.BytesMoved
	m.DemotedBytes = res.Demotions.BytesMoved
	m.RegionsDemoted = len(res.Demotions.Moved)
}

// LastMigration returns the report of the most recent placement, or a
// zero report if none has run. Its Health is read at call time.
func (r *Runtime) LastMigration() MigrationReport {
	rep := r.lastMig
	rep.Health = r.healthReport()
	return rep
}

// ObjectPlacement describes where one object's bytes live.
type ObjectPlacement struct {
	Name          string
	Size          uint64
	FastBytes     uint64
	SelectedBytes uint64
	Ranges        int
	ChunkSize     uint64
}

// PlacementSummary reports the current placement of every registered
// object.
func (r *Runtime) PlacementSummary() []ObjectPlacement {
	var out []ObjectPlacement
	for _, o := range r.Objects() {
		op := ObjectPlacement{
			Name:      o.name,
			Size:      o.size,
			FastBytes: o.FastBytes(),
			ChunkSize: o.do.ChunkSize,
		}
		if r.plan != nil {
			for i := range r.plan.Objects {
				if r.plan.Objects[i].Object == o.do {
					op.SelectedBytes = r.plan.Objects[i].SelectedBytes()
					op.Ranges = len(r.plan.Objects[i].Ranges)
				}
			}
		}
		out = append(out, op)
	}
	return out
}

// FastDataRatio returns the fraction of registered bytes currently on the
// high-performance memory.
func (r *Runtime) FastDataRatio() float64 {
	var total, fast uint64
	for _, o := range r.Objects() {
		total += o.size
		fast += o.FastBytes()
	}
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}
