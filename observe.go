package atmem

// This file holds the runtime's observation points: one function per
// boundary of the paper's §5 loop — a phase, a placement, an epoch —
// each called once with the boundary's one record (PhaseResult,
// MigrationReport, EpochReport) and feeding every consumer from it: the
// trace recorder, the metrics registry, the scorecards. One drain
// mirrors the transition logs (fault events, breaker and granule-state
// changes) into the trace at every placement and epoch end, so the
// trace never lags behind the logs it mirrors.

import (
	"atmem/internal/governor"
	"atmem/internal/memsim"
	"atmem/internal/telemetry"
)

// traceCursor counts how many entries of each transition log the trace
// already holds.
type traceCursor struct {
	faults, breaker, health int
}

// drainTransitions mirrors every fault event, breaker transition and
// granule-state transition not yet in the trace as an instant. It runs
// at every placement end, at every epoch end and in the trace writers,
// so the trace's transition instants stay in one-to-one correspondence
// with FaultEvents, BreakerTransitions and the scoreboard's
// Transitions, each stamped near the boundary that caused it.
func (r *Runtime) drainTransitions() {
	if !r.rec.Enabled() {
		return
	}
	c := &r.traced
	if r.faults != nil {
		evs := r.faults.Events()
		for ; c.faults < len(evs); c.faults++ {
			ev := evs[c.faults]
			r.rec.Instant("fault", string(ev.Op), telemetry.Args{
				"call": ev.Call,
				"rule": ev.Rule,
			})
		}
	}
	trs := r.breaker.Transitions()
	for ; c.breaker < len(trs); c.breaker++ {
		tr := trs[c.breaker]
		r.rec.Instant("governor", "breaker-"+tr.To.String(), telemetry.Args{
			"epoch":    tr.Epoch,
			"from":     tr.From.String(),
			"reason":   tr.Reason,
			"cooldown": tr.Cooldown,
		})
	}
	if r.board != nil {
		trs := r.board.Transitions()
		for ; c.health < len(trs); c.health++ {
			tr := trs[c.health]
			args := telemetry.Args{
				"epoch":  tr.Epoch,
				"base":   tr.Base,
				"bytes":  tr.Size,
				"from":   tr.From.String(),
				"reason": tr.Reason,
			}
			if tr.Backoff > 0 {
				args["backoff"] = tr.Backoff
			}
			r.rec.Instant("health", "granule-"+tr.To.String(), args)
		}
	}
}

// endPhase is the phase-end observer (RunPhase, control plane): it
// reads each tier's occupancy (mapped and staging-reserved bytes) once,
// then closes the phase's span and feeds the trace's counter tracks and
// the metrics from it and the phase's per-tier traffic.
func (r *Runtime) endPhase(pr *PhaseResult) {
	if !r.rec.Enabled() && r.met == nil {
		return
	}
	st := &pr.Stats
	var mapped, reserved [memsim.NumTiers]uint64
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		mapped[t], reserved[t] = r.sys.TierUsage(t)
	}
	if r.rec.Enabled() {
		r.rec.End("phase", pr.Name, telemetry.Args{
			"wall_s":     st.WallSeconds,
			"accesses":   st.Accesses,
			"llc_misses": st.LLCMisses,
			"tlb_misses": st.TLBMisses,
		})
		occ := make(telemetry.Args, 2*memsim.NumTiers)
		traffic := make(telemetry.Args, 3*memsim.NumTiers)
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			occ[t.String()+"_mapped"] = mapped[t]
			occ[t.String()+"_reserved"] = reserved[t]
			traffic[t.String()+"_read"] = st.ReadBytes[t]
			traffic[t.String()+"_write"] = st.WriteBytes[t]
			traffic[t.String()+"_writeback"] = st.WritebackBytes[t]
		}
		r.rec.Counter("metric", "tier-occupancy", occ)
		r.rec.Counter("metric", "phase-traffic", traffic)
	}
	if m := r.met; m != nil {
		m.phases.Inc()
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			m.tierRead[t].Add(st.ReadBytes[t])
			m.tierWrite[t].Add(st.WriteBytes[t])
			m.tierWriteback[t].Add(st.WritebackBytes[t])
			m.tierMapped[t].SetUint(mapped[t])
			m.tierReserved[t].SetUint(reserved[t])
		}
		m.phaseNS.ObserveSeconds(st.WallSeconds)
	}
}

// endPlacement is the placement-end observer, shared by the analyzer
// path (optimizeGoverned: decision is the breaker's call, analyzeNS the
// analyzer's host wall time) and replay (applyPlanEpoch, replayed). It
// completes rep with the breaker state, the fast-resident bytes after
// the placement and the health snapshot, drains the transition logs,
// closes the placement's span with arguments read off rep, records the
// metrics (the health counters as the delta from the previous
// placement's report) and stores rep as the last placement.
func (r *Runtime) endPlacement(rep *MigrationReport, replayed bool, decision governor.Decision, analyzeNS uint64) {
	state := r.breaker.State()
	rep.Breaker = state.String()
	rep.ResidentBytes = r.registeredFastBytes()
	// Mirror the breaker state atomically for /healthz, which reads from
	// the debug listener's goroutine mid-run.
	r.breakerOpenA.Store(state != governor.StateClosed)
	rep.Health = r.healthReport()
	r.drainTransitions()
	switch {
	case !r.rec.Enabled():
	case replayed:
		r.rec.End("replay", "apply-plan", telemetry.Args{
			"promoted_bytes": rep.PromotedBytes,
			"demoted_bytes":  rep.DemotedBytes,
			"seconds":        rep.Seconds,
		})
	default:
		r.rec.End("optimize", "optimize", telemetry.Args{
			"engine":           rep.Engine,
			"migration_s":      rep.Seconds,
			"bytes_moved":      rep.BytesMoved,
			"regions_migrated": rep.RegionsMigrated,
			"regions_retried":  rep.RegionsRetried,
			"regions_skipped":  rep.RegionsSkipped,
			"selected_bytes":   rep.SelectedBytes,
			"clipped_bytes":    rep.ClippedBytes,
			"epoch":            rep.Epoch,
			"decision":         decision.String(),
			"breaker":          rep.Breaker,
			"promoted_bytes":   rep.PromotedBytes,
			"demoted_bytes":    rep.DemotedBytes,
			"pressure_bytes":   rep.PressureDemotedBytes,
			"resident_bytes":   rep.ResidentBytes,
		})
	}
	if m := r.met; m != nil {
		if analyzeNS > 0 {
			m.analyzeNS.Observe(analyzeNS)
		}
		m.migrateNS.ObserveSeconds(rep.Seconds)
		m.movedBytes.Add(rep.BytesMoved)
		m.pagesMoved.Add(uint64(rep.PagesMoved))
		m.hugeSplits.Add(uint64(rep.HugePagesSplit))
		m.tlbShootdowns.Add(uint64(rep.TLBShootdowns))
		m.regionsMigrated.Add(uint64(rep.RegionsMigrated))
		m.regionsRetried.Add(uint64(rep.RegionsRetried))
		m.regionsSkipped.Add(uint64(rep.RegionsSkipped))
		m.promotedBytes.Add(rep.PromotedBytes)
		m.demotedBytes.Add(rep.DemotedBytes)
		m.breakerState.Set(float64(state))
		m.residentBytes.SetUint(rep.ResidentBytes)
		h, prev := rep.Health, r.lastMig.Health
		m.quarantinedBytes.SetUint(h.QuarantinedBytes)
		m.scrubbedBytes.Add(h.ScrubbedBytes - prev.ScrubbedBytes)
		m.crcDetected.Add(uint64(h.CorruptionsDetected - prev.CorruptionsDetected))
		m.crcRepaired.Add(uint64(h.CorruptionsRepaired - prev.CorruptionsRepaired))
		m.emergDemotions.Add(uint64(h.EmergencyDemotions - prev.EmergencyDemotions))
		m.promosVetoed.Add(uint64(h.PromotionsVetoed - prev.PromotionsVetoed))
	}
	r.lastMig = *rep
}

// endEpoch is the epoch-end observer (control plane, after the
// placement and health passes settled): it drains the transition logs,
// derives the epoch's scorecard, publishes it to the scorecard list,
// the atomic latest-scorecard slot, the metrics and the broker's
// arbiter, and closes the epoch's span with end.
func (r *Runtime) endEpoch(name string, end telemetry.Args, rep *EpochReport, scrubStartNS uint64) {
	r.drainTransitions()
	sc := Scorecard{Epoch: rep.Epoch}
	for i := range rep.Phases {
		st := &rep.Phases[i].Stats
		sc.PhaseSeconds += st.WallSeconds
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			n := st.ReadBytes[t] + st.WriteBytes[t] + st.WritebackBytes[t]
			sc.TotalBytesTouched += n
			if t == memsim.TierFast {
				sc.FastBytesTouched += n
			}
		}
	}
	if sc.TotalBytesTouched > 0 {
		sc.FastAccessShare = float64(sc.FastBytesTouched) / float64(sc.TotalBytesTouched)
	}
	if rep.Optimized {
		sc.ResidentBytes = rep.Migration.ResidentBytes
		sc.PromotedBytes = rep.Migration.PromotedBytes
		sc.DemotedBytes = rep.Migration.DemotedBytes
		sc.MovedBytes = rep.Migration.BytesMoved
		sc.MigrationSeconds = rep.Migration.Seconds
		sc.Breaker = rep.Migration.Breaker
	} else {
		// A zero-sample epoch ran no Optimize: placement is unchanged,
		// so report the standing residency and breaker state.
		sc.ResidentBytes = r.ResidentBytes()
		sc.Breaker = r.BreakerState().String()
	}
	if sc.ResidentBytes > 0 {
		sc.FastResidencyEfficiency = float64(sc.FastBytesTouched) / float64(sc.ResidentBytes)
	}
	if sc.MovedBytes > 0 {
		sc.MigrationEfficiency = float64(sc.FastBytesTouched) / float64(sc.MovedBytes)
	}
	sc.ScrubSeconds = float64(r.scrubChargedNS-scrubStartNS) / 1e9
	sc.ProfilingOverheadSeconds = float64(r.prof.SampleCount()) * r.opts.SampleOverheadNS / 1e9
	if sc.PhaseSeconds > 0 {
		sc.OverheadTax = (sc.ScrubSeconds + sc.ProfilingOverheadSeconds) / sc.PhaseSeconds
	}

	r.scorecards = append(r.scorecards, sc)
	r.lastScore.Store(&sc)
	if m := r.met; m != nil {
		m.epochs.Inc()
		if rep.Migration.BreakerSkipped {
			m.epochsSkipped.Inc()
		}
		m.samples.Add(uint64(rep.Samples))
		m.epochNS.ObserveSeconds(sc.PhaseSeconds + sc.MigrationSeconds + sc.ScrubSeconds)
		m.scoreEpoch.SetUint(uint64(sc.Epoch))
		m.scoreFastShare.Set(sc.FastAccessShare)
		m.scoreResidEff.Set(sc.FastResidencyEfficiency)
		m.scoreMigEff.Set(sc.MigrationEfficiency)
		m.scoreOverhead.Set(sc.OverheadTax)
	}
	// Feed the broker's arbiter (see broker.go).
	r.reportTenantSignal(&sc)
	r.rec.End("epoch", name, end)
}
