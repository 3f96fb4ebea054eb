package harness

import (
	"errors"
	"fmt"
	"sync"

	"atmem"
	"atmem/apps"
	"atmem/internal/broker"
	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/telemetry"
)

// This file implements the multi-tenant serving scenario: N runtime
// tenants share one broker-arbitrated fast tier while tenants arrive
// and depart over ~30 epoch rounds and one tenant suffers a
// persistent-fault + corruption storm mid-run. It is the end-to-end
// proof of the broker's isolation contract: the victim degrades and
// recovers, no non-victim's fast-access share degrades from its own
// pre-storm level once the storm starts, every post-warmup epoch stays
// inside its per-epoch phase-latency SLO, every tenant's results are
// bit-identical to its solo run, and admission never promises more
// than `fast capacity − quarantined`.
//
// The share bar is self-baselined: each non-victim's mean share over
// the storm-and-after rounds is compared against its own mean over its
// settled pre-storm rounds in the same run, not against its solo run.
// A solo baseline is the whole tier to yourself — a tenant whose floor
// is a fraction of capacity is not promised solo-level service while
// sharing, and how much surplus the arbiter can grant it legitimately
// varies with the co-tenants' interleaving. What the broker does
// promise is that a co-tenant's storm stays in the victim's fault
// domain: nobody else's established service level drops. The bar
// compares windowed means, not epoch-by-epoch values (chunk-alignment
// reshuffles the epoch trajectory), and is one-sided — gaining share
// when the storm shrinks the victim's appetite is headroom, not a
// violation. The solo runs still set the phase-latency SLOs and the
// bit-identical result CRCs.

// ServingTenant declares one tenant of the serving scenario.
type ServingTenant struct {
	// Spec is the broker admission spec. A zero SLOSeconds is derived
	// from the tenant's own solo baseline (1.25 × its slowest epoch).
	Spec atmem.TenantSpec
	// App is the kernel (must be deterministic: bfs, cc, sssp — not pr,
	// whose atomic float accumulation is interleaving-dependent).
	App string
	// ArriveRound is the 0-based round the tenant is admitted at.
	ArriveRound int
	// DepartRound, when non-zero, is the round the tenant departs
	// before (its runtime is Closed); zero means it stays to the end.
	DepartRound int
	// Victim marks the storm target.
	Victim bool
}

// ServingScenario configures one serving run.
type ServingScenario struct {
	// Dataset names the input graph every tenant loads its own copy of.
	Dataset string
	// Rounds is the number of epoch rounds (each live tenant runs one
	// governed epoch per round, concurrently, then the broker
	// rebalances).
	Rounds int
	// WarmupEpochs is the per-tenant epoch count excluded from the
	// isolation bars: a tenant's first epochs ramp its share from the
	// floor, and the paper's methodology likewise measures warm
	// iterations only.
	WarmupEpochs int
	// FastTierBytes is the NVM-DRAM testbed's fast-tier capacity.
	FastTierBytes uint64
	// Tenants are the cast; exactly one must be the Victim.
	Tenants []ServingTenant
	// Health is the per-tenant scoreboard policy (the scrubber is
	// always on — serving tenants must self-heal corruption).
	Health health.Policy
	// StormStart/StormEnd bound the storm: at round StormStart a
	// persistent retier fault over the victim's graph arrays plus one
	// corruption wave are armed; at StormEnd they are disarmed.
	StormStart, StormEnd int
	// ShareTolerance is the isolation bar: a non-victim's mean
	// fast-access share over the storm-and-after rounds must not fall
	// more than this fraction below its own settled pre-storm mean
	// (absolute floor 0.05).
	ShareTolerance float64
	// RejectSpec, when non-empty-named, is admitted at StormStart and
	// must be rejected with ErrAdmission (the oversubscription probe).
	RejectSpec atmem.TenantSpec
	// TraceDir, when non-empty, records the victim runtime's telemetry
	// and writes trace + scorecard artifacts there.
	TraceDir string
}

// DefaultServingScenario returns the scenario the serving experiment
// and CI smoke run: four pokec tenants across the three QoS classes on
// a 48 MiB fast tier, arrivals at rounds 0/0/4/8, one departure at
// round 22, and a round 12–18 storm against the burstable cc tenant.
func DefaultServingScenario() ServingScenario {
	return ServingScenario{
		Dataset:       "pokec",
		Rounds:        30,
		WarmupEpochs:  6,
		FastTierBytes: 48 << 20,
		Tenants: []ServingTenant{
			{Spec: atmem.TenantSpec{Name: "alpha", Class: atmem.ClassGuaranteed, FloorBytes: 10 << 20, BurstBytes: 10 << 20},
				App: "bfs", ArriveRound: 0},
			{Spec: atmem.TenantSpec{Name: "bravo", Class: atmem.ClassBurstable, FloorBytes: 8 << 20},
				App: "cc", ArriveRound: 0, Victim: true},
			{Spec: atmem.TenantSpec{Name: "charlie", Class: atmem.ClassBestEffort, ShedPriority: 0},
				App: "sssp", ArriveRound: 4},
			{Spec: atmem.TenantSpec{Name: "delta", Class: atmem.ClassBurstable, FloorBytes: 4 << 20},
				App: "bfs", ArriveRound: 8, DepartRound: 22},
		},
		Health: health.Policy{
			Window:              6,
			PersistentThreshold: 2,
			BackoffEpochs:       1,
			MaxBackoff:          4,
		},
		StormStart:     12,
		StormEnd:       18,
		ShareTolerance: 0.10,
		RejectSpec:     atmem.TenantSpec{Name: "hog", Class: atmem.ClassGuaranteed, FloorBytes: 40 << 20},
	}
}

// ServingEpoch is one tenant-epoch of the shared run, for reports.
type ServingEpoch struct {
	Round  int
	Tenant string
	// Epoch is the tenant's own 1-based governed epoch.
	Epoch int
	// FastShare / SoloFastShare compare the shared run against the solo
	// baseline at the same tenant epoch.
	FastShare     float64
	SoloFastShare float64
	// Seconds is the epoch's total simulated time (phases + migration +
	// scrub); PhaseSeconds is the foreground slice the SLO is checked
	// against (migration and scrubbing are background work a serving
	// latency bar does not charge).
	Seconds      float64
	PhaseSeconds float64
	SLO          float64
	// ShareBytes and QuarantinedBytes mirror the tenant's grant and its
	// own fault-domain debit after the round.
	ShareBytes       uint64
	QuarantinedBytes uint64
	Shed             bool
	Breaker          string
}

// servingSolo is one tenant's solo baseline: the identical spec and
// epoch count on its own broker over an identically-sized system.
type servingSolo struct {
	shares []float64 // per-epoch fast-access share
	slo    float64   // 1.25 × slowest solo phase (or Spec.SLOSeconds)
	crc    uint32
}

// ServingResult is the outcome of one serving scenario.
type ServingResult struct {
	Epochs []ServingEpoch
	// Rebalances are the broker's per-round reports.
	Rebalances []broker.RebalanceReport
	// RejectErr is the oversubscription probe's admission error.
	RejectErr error
	// VictimQuarantined is the victim's own quarantine debit at the end.
	VictimQuarantined uint64
	// CRCs maps tenant name to its shared-run result checksum (each
	// verified identical to the solo baseline before returning).
	CRCs map[string]uint32
	// TracePath is the victim's written Chrome trace (empty without
	// TraceDir).
	TracePath string
}

// servingMember is one live tenant's state during the shared run.
type servingMember struct {
	cfg    ServingTenant
	tenant *atmem.Tenant
	rt     *atmem.Runtime
	kern   apps.Kernel
	epoch  int // epochs run so far
}

// RunServing executes the scenario: one solo baseline per tenant, then
// the shared multi-tenant run, then the isolation bars. Every bar
// violation is an error — the experiment's value is that these cannot
// rot.
func RunServing(sc ServingScenario) (*ServingResult, error) {
	victims := 0
	for _, tc := range sc.Tenants {
		if tc.Victim {
			victims++
		}
	}
	if victims != 1 {
		return nil, fmt.Errorf("harness: serving: %d victims declared, want exactly 1", victims)
	}

	// Phase 1: solo baselines. Same spec, same epoch count, own broker
	// over an identically-sized system, no storm (the isolation bars
	// compare the shared run against undisturbed solo service, and the
	// victim's results must be storm-invariant anyway).
	solos := make(map[string]*servingSolo, len(sc.Tenants))
	for _, tc := range sc.Tenants {
		solo, err := sc.runSolo(tc)
		if err != nil {
			return nil, fmt.Errorf("harness: serving solo %s: %w", tc.Spec.Name, err)
		}
		solos[tc.Spec.Name] = solo
	}

	// Phase 2: the shared run.
	res, err := sc.runShared(solos)
	if err != nil {
		return nil, err
	}

	// Phase 3: the bars.
	if err := sc.checkBars(res, solos); err != nil {
		return res, err
	}
	return res, nil
}

// tenantRounds returns the number of rounds the tenant participates in.
func (sc ServingScenario) tenantRounds(tc ServingTenant) int {
	end := sc.Rounds
	if tc.DepartRound != 0 && tc.DepartRound < end {
		end = tc.DepartRound
	}
	return end - tc.ArriveRound
}

func (sc ServingScenario) testbed() atmem.Testbed {
	p := memsim.NVMDRAMParams()
	p.Tiers[memsim.TierFast].CapacityBytes = sc.FastTierBytes
	return atmem.CustomTestbed(p)
}

// newMember admits the tenant on bk and builds its runtime + kernel.
func (sc ServingScenario) newMember(bk *atmem.Broker, tc ServingTenant, rec *telemetry.Recorder) (*servingMember, error) {
	tn, err := bk.Admit(tc.Spec)
	if err != nil {
		return nil, err
	}
	opts := []atmem.Option{
		atmem.WithPlacementPolicy(atmem.PaperPolicy()),
		atmem.WithTenant(tn),
		atmem.WithScrubber(),
		atmem.WithHealthPolicy(sc.Health),
	}
	if rec != nil {
		opts = append(opts, atmem.WithTelemetry(rec))
	}
	rt, kerns, err := newSession(sc.testbed(), sc.Dataset, []string{tc.App}, opts...)
	if err != nil {
		return nil, err
	}
	return &servingMember{cfg: tc, tenant: tn, rt: rt, kern: kerns[0]}, nil
}

// epochSeconds is the scorecard's end-to-end simulated epoch time.
func epochSeconds(card atmem.Scorecard) float64 {
	return card.PhaseSeconds + card.MigrationSeconds + card.ScrubSeconds
}

// runSolo runs one tenant alone — same spec, broker config, system
// size, and epoch count as its shared-run life — and derives its SLO.
func (sc ServingScenario) runSolo(tc ServingTenant) (*servingSolo, error) {
	bk := atmem.NewBroker(sc.testbed(), atmem.BrokerConfig{})
	m, err := sc.newMember(bk, tc, nil)
	if err != nil {
		return nil, err
	}
	solo := &servingSolo{}
	for e := 0; e < sc.tenantRounds(tc); e++ {
		name := fmt.Sprintf("%s-%d", tc.App, e+1)
		if _, err := m.rt.RunEpoch(name, func() { m.kern.RunIteration(m.rt) }); err != nil {
			return nil, err
		}
		bk.Rebalance()
	}
	cards := m.rt.Scorecards()
	for _, card := range cards {
		solo.shares = append(solo.shares, card.FastAccessShare)
		if card.PhaseSeconds > solo.slo {
			solo.slo = card.PhaseSeconds
		}
	}
	solo.slo *= 1.25
	if tc.Spec.SLOSeconds > 0 {
		solo.slo = tc.Spec.SLOSeconds
	}
	if err := checkBooks(m.rt, m.kern); err != nil {
		return nil, err
	}
	solo.crc = resultCRC(m.rt)
	if err := m.rt.Close(); err != nil {
		return nil, err
	}
	return solo, nil
}

// servingStormWindow caps each of the storm's two blast windows (the
// corruption wave and the persistent retier fault) to this many bytes
// of fully fast-resident chunks, keeping the worst-case quarantine
// debit — both windows retired, plus chunk-boundary spill — far below
// the victim's 8 MiB floor, so recovery stays possible by construction.
const servingStormWindow = memsim.MiB

// armServingStorm aims the victim's storm at chunks that are *fully
// fast-resident right now* — exactly the set the scrubber tracks. The
// corruption wave fires at the victim's next epoch start, in the same
// health bracket as the scrub and before any migration can move the
// data, so detection → evacuate → retire lands a quarantine debit
// deterministically rather than only when placement churn happens to
// cross a blind address window. A second, disjoint set of resident
// chunks gets a persistent retier fault for the storm's duration:
// migrations touching them fail and accumulate scoreboard strikes,
// with their retirement deferred until the storm clears.
func armServingStorm(m *servingMember) error {
	sys := m.rt.System()
	var faults []faultinject.Fault
	var corruptBytes, persistBytes uint64
	for _, do := range m.rt.Registry().Objects() {
		for j := 0; j < do.NumChunks; j++ {
			lo, hi := do.ChunkRange(j)
			if hi == lo || sys.BytesOnTier(lo, hi-lo)[memsim.TierFast] != hi-lo {
				continue
			}
			switch {
			case corruptBytes < servingStormWindow:
				faults = append(faults, faultinject.Fault{
					Kind: faultinject.Corrupt, Nth: 1, Base: lo, Size: hi - lo})
				corruptBytes += hi - lo
			case persistBytes < servingStormWindow:
				faults = append(faults, faultinject.Fault{
					Kind: faultinject.Persistent, Op: faultinject.OpRetier,
					Base: lo, Size: hi - lo})
				persistBytes += hi - lo
			}
		}
	}
	if corruptBytes == 0 {
		return fmt.Errorf("harness: serving storm: victim has no fully fast-resident chunks to corrupt")
	}
	m.rt.ArmFaults(faults...)
	return nil
}

// runShared executes the multi-tenant run round by round.
func (sc ServingScenario) runShared(solos map[string]*servingSolo) (*ServingResult, error) {
	bk := atmem.NewBroker(sc.testbed(), atmem.BrokerConfig{})
	res := &ServingResult{CRCs: make(map[string]uint32)}
	var members []*servingMember
	var victim *servingMember
	var floorsPromised uint64

	admit := func(tc ServingTenant) error {
		var rec *telemetry.Recorder
		if tc.Victim && sc.TraceDir != "" {
			rec = telemetry.NewRecorder()
		}
		m, err := sc.newMember(bk, tc, rec)
		if err != nil {
			return fmt.Errorf("harness: serving admit %s: %w", tc.Spec.Name, err)
		}
		floorsPromised += tc.Spec.FloorBytes
		// The admission invariant, checked at the only moments it can
		// change in the broker's favour: promised floors never exceed
		// what the tier actually still has.
		if avail := bk.Capacity() - min(bk.Capacity(), bk.System().Quarantined()); floorsPromised > avail {
			return fmt.Errorf("harness: serving: admission oversubscribed — %d promised floor bytes > %d available",
				floorsPromised, avail)
		}
		members = append(members, m)
		if tc.Victim {
			victim = m
		}
		return nil
	}

	finishMember := func(m *servingMember) error {
		if err := checkBooks(m.rt, m.kern); err != nil {
			return fmt.Errorf("harness: serving %s: %w", m.cfg.Spec.Name, err)
		}
		crc := resultCRC(m.rt)
		res.CRCs[m.cfg.Spec.Name] = crc
		if solo := solos[m.cfg.Spec.Name]; crc != solo.crc {
			return fmt.Errorf("harness: serving %s: results diverged from the solo run: %08x vs %08x",
				m.cfg.Spec.Name, crc, solo.crc)
		}
		return nil
	}

	for round := 0; round < sc.Rounds; round++ {
		// Departures first (freeing floor budget), then arrivals.
		for i := 0; i < len(members); {
			m := members[i]
			if m.cfg.DepartRound != 0 && m.cfg.DepartRound == round {
				if err := finishMember(m); err != nil {
					return res, err
				}
				if err := m.rt.Close(); err != nil {
					return res, fmt.Errorf("harness: serving depart %s: %w", m.cfg.Spec.Name, err)
				}
				floorsPromised -= m.cfg.Spec.FloorBytes
				members = append(members[:i], members[i+1:]...)
				continue
			}
			i++
		}
		for _, tc := range sc.Tenants {
			if tc.ArriveRound == round {
				if err := admit(tc); err != nil {
					return res, err
				}
			}
		}
		if round == sc.StormStart {
			if victim == nil {
				return res, fmt.Errorf("harness: serving: storm start before the victim arrived")
			}
			if err := armServingStorm(victim); err != nil {
				return res, err
			}
			if sc.RejectSpec.Name != "" {
				_, err := bk.Admit(sc.RejectSpec)
				if !errors.Is(err, atmem.ErrAdmission) {
					return res, fmt.Errorf("harness: serving: oversubscription probe %q not rejected with ErrAdmission (got %v)",
						sc.RejectSpec.Name, err)
				}
				res.RejectErr = err
			}
		}
		if round == sc.StormEnd && victim != nil {
			victim.rt.DisarmFaults()
		}

		// Every live tenant runs one governed epoch, concurrently: the
		// broker serving shape. Kernels interleave freely on the shared
		// system; the placement lock serializes migrations and health.
		errs := make([]error, len(members))
		var wg sync.WaitGroup
		for i, m := range members {
			wg.Add(1)
			go func(i int, m *servingMember) {
				defer wg.Done()
				name := fmt.Sprintf("%s-%d", m.cfg.App, m.epoch+1)
				_, errs[i] = m.rt.RunEpoch(name, func() { m.kern.RunIteration(m.rt) })
			}(i, m)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return res, fmt.Errorf("harness: serving round %d tenant %s: %w",
					round, members[i].cfg.Spec.Name, err)
			}
		}
		rr := bk.Rebalance()
		res.Rebalances = append(res.Rebalances, rr)

		for _, m := range members {
			m.epoch++
			cards := m.rt.Scorecards()
			if len(cards) != m.epoch {
				return res, fmt.Errorf("harness: serving %s: %d scorecards after epoch %d",
					m.cfg.Spec.Name, len(cards), m.epoch)
			}
			card := cards[m.epoch-1]
			solo := solos[m.cfg.Spec.Name]
			ep := ServingEpoch{
				Round:            round,
				Tenant:           m.cfg.Spec.Name,
				Epoch:            m.epoch,
				FastShare:        card.FastAccessShare,
				Seconds:          epochSeconds(card),
				PhaseSeconds:     card.PhaseSeconds,
				SLO:              solo.slo,
				ShareBytes:       m.tenant.Share(),
				QuarantinedBytes: bk.System().TenantUsage(m.tenant.ID()).QuarantinedBytes,
				Shed:             m.tenant.IsShed(),
				Breaker:          card.Breaker,
			}
			if m.epoch-1 < len(solo.shares) {
				ep.SoloFastShare = solo.shares[m.epoch-1]
			}
			res.Epochs = append(res.Epochs, ep)
		}
		// The shared books must balance after every round, including
		// the quarantined slice.
		if err := bk.System().CheckConsistency(); err != nil {
			return res, fmt.Errorf("harness: serving round %d: %w", round, err)
		}
	}

	for _, m := range members {
		if err := finishMember(m); err != nil {
			return res, err
		}
	}
	if victim != nil {
		res.VictimQuarantined = bk.System().TenantUsage(victim.tenant.ID()).QuarantinedBytes
		if sc.TraceDir != "" {
			path, err := writeTraceArtifacts(victim.rt, sc.TraceDir, "nvm-serving-"+sc.Dataset)
			if err != nil {
				return res, err
			}
			res.TracePath = path
		}
	}
	for _, m := range members {
		if err := m.rt.Close(); err != nil {
			return res, fmt.Errorf("harness: serving close %s: %w", m.cfg.Spec.Name, err)
		}
	}
	// Every tenant departed: the shared fast tier must be empty except
	// for the quarantine ledger — nothing leaked.
	if used := bk.System().Used(memsim.TierFast); used != 0 {
		return res, fmt.Errorf("harness: serving: %d fast bytes leaked after every tenant departed", used)
	}
	return res, nil
}

// checkBars enforces the isolation contract on the recorded epochs.
func (sc ServingScenario) checkBars(res *ServingResult, solos map[string]*servingSolo) error {
	if res.VictimQuarantined == 0 {
		return fmt.Errorf("harness: serving: the storm left no quarantine debit on the victim — it never degraded")
	}
	var victimName string
	for _, tc := range sc.Tenants {
		if tc.Victim {
			victimName = tc.Spec.Name
		}
	}
	guaranteed := make(map[string]bool, len(sc.Tenants))
	for _, tc := range sc.Tenants {
		guaranteed[tc.Spec.Name] = tc.Spec.Class == atmem.ClassGuaranteed
	}
	// Self-baselined share windows: a tenant's first few epochs
	// bootstrap its grant from zero, so they are not an established
	// service level; a tenant needs a few settled pre-storm epochs
	// before the degradation bar applies to it at all.
	const settleEpochs, minBaseline = 3, 3
	type shareSum struct {
		pre, post   float64
		npre, npost int
	}
	means := make(map[string]*shareSum)
	var victimPost, victimPostSolo struct {
		share float64
		n     int
	}
	victimBreaker := ""
	for _, ep := range res.Epochs {
		if guaranteed[ep.Tenant] && ep.Shed {
			// Guaranteed floors are never shed, victim or not.
			return fmt.Errorf("harness: serving: guaranteed tenant %s was shed at round %d", ep.Tenant, ep.Round)
		}
		if ep.Tenant == victimName {
			victimBreaker = ep.Breaker
			// Recovery window: once the storm has been over for a full
			// heal round, the victim's service counts toward the
			// recovery bar.
			if ep.Round > sc.StormEnd+1 {
				victimPost.share += ep.FastShare
				victimPost.n++
				victimPostSolo.share += ep.SoloFastShare
				victimPostSolo.n++
			}
			continue
		}
		if ep.Epoch <= sc.WarmupEpochs || ep.Shed {
			continue
		}
		// The per-epoch latency SLO: foreground phase time only —
		// migration and scrubbing are background work.
		if ep.PhaseSeconds > ep.SLO {
			return fmt.Errorf("harness: serving: tenant %s epoch %d phase took %.4fs, over its %.4fs SLO",
				ep.Tenant, ep.Epoch, ep.PhaseSeconds, ep.SLO)
		}
		if ep.Epoch <= settleEpochs {
			continue
		}
		m := means[ep.Tenant]
		if m == nil {
			m = &shareSum{}
			means[ep.Tenant] = m
		}
		if ep.Round < sc.StormStart {
			m.pre += ep.FastShare
			m.npre++
		} else {
			m.post += ep.FastShare
			m.npost++
		}
	}
	// The isolation bar: the victim's storm must not degrade a
	// co-tenant's mean fast service below its own settled pre-storm
	// level. One-sided — gaining share is headroom, not a violation.
	// Tenants without a settled pre-storm baseline (they arrived just
	// before or during the storm) are covered by the SLO and CRC bars
	// only.
	for name, m := range means {
		if m.npre < minBaseline || m.npost == 0 {
			continue
		}
		pre, post := m.pre/float64(m.npre), m.post/float64(m.npost)
		tol := sc.ShareTolerance * pre
		if tol < 0.05 {
			tol = 0.05
		}
		if post < pre-tol {
			return fmt.Errorf("harness: serving: tenant %s mean fast share %.3f from the storm on fell more than %.3f below its pre-storm mean %.3f",
				name, post, tol, pre)
		}
	}
	// Recovery: after the storm the victim must be serving from fast
	// memory again — at least half its solo service level over the
	// post-storm window (the persistent quarantine debit legitimately
	// costs it some budget forever) — with its breaker closed.
	if victimPost.n == 0 {
		return fmt.Errorf("harness: serving: no post-storm epochs recorded for victim %s", victimName)
	}
	got, want := victimPost.share/float64(victimPost.n), victimPostSolo.share/float64(victimPostSolo.n)
	if got < 0.5*want {
		return fmt.Errorf("harness: serving: victim %s never recovered — post-storm mean fast share %.3f vs solo %.3f",
			victimName, got, want)
	}
	if victimBreaker != "closed" {
		return fmt.Errorf("harness: serving: victim %s breaker still %s at the final round", victimName, victimBreaker)
	}
	return nil
}

// serving is the experiment wrapper: the shared run rendered one row
// per tenant-epoch, with the rebalance trail in the note.
func serving(s *Suite) ([]*Report, error) {
	sc := DefaultServingScenario()
	sc.TraceDir = s.TraceDir
	res, err := RunServing(sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "serving",
		Title: "Multi-tenant broker: isolation and SLO-aware degradation under a mid-run storm (pokec, NVM-DRAM)",
		Columns: []string{"round", "tenant", "epoch", "fast-share", "solo-share",
			"iter(s)", "slo(s)", "share(MiB)", "quarantined", "shed", "breaker"},
	}
	for _, e := range res.Epochs {
		rep.AddRow(
			fmt.Sprintf("%d", e.Round), e.Tenant, fmt.Sprintf("%d", e.Epoch),
			fmt.Sprintf("%.3f", e.FastShare), fmt.Sprintf("%.3f", e.SoloFastShare),
			secs(e.Seconds), secs(e.SLO),
			fmt.Sprintf("%d", e.ShareBytes>>20),
			fmt.Sprintf("%d", e.QuarantinedBytes),
			fmt.Sprintf("%t", e.Shed), e.Breaker)
	}
	granted, shed := 0, 0
	for _, rr := range res.Rebalances {
		if rr.GrantedTo != "" {
			granted++
		}
		shed += len(rr.Shed)
	}
	rep.AddNote("victim quarantine debit %d bytes; no non-victim mean fast share fell more than %.0f%% below its own pre-storm level and every post-warmup phase stayed inside its SLO; oversubscription probe rejected (%v); %d/%d rebalances granted, %d tenants shed; every tenant's results bit-identical to its solo run",
		res.VictimQuarantined, 100*sc.ShareTolerance, res.RejectErr,
		granted, len(res.Rebalances), shed)
	return []*Report{rep}, nil
}
