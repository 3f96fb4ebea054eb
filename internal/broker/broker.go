// Package broker arbitrates one shared fast tier between N concurrent
// runtime tenants. Its contract is robustness: no tenant can take the
// shared memory system down or starve the others.
//
// Each tenant is admitted under a QoS class with a guaranteed floor
// and a burst limit on its fast-tier share. Admission control rejects
// a tenant whose guaranteed floor would oversubscribe the fast tier —
// shrunk by the quarantine ledger, so capacity the health subsystem
// has retired is never promised twice. A global arbiter
// rebalances shares once per epoch from per-tenant scorecard signals:
// the tenant whose marginal (budget-clipped) chunk is hottest gains a
// quantum, reclaimed from the free pool first and from the coldest
// burstable tenant above its floor second.
//
// Fault domains stay isolated through the memsim tenant sub-ledgers:
// a tenant's quarantine debits shrink only its own effective budget
// (Tenant.Budget), and its circuit breaker, watermark demotions, and
// degradation ladder live in its own runtime. The broker adds one
// broker-level breaker driven by aggregate fast-tier pressure: when
// the pool as a whole crosses the global high watermark for
// consecutive epochs, the broker sheds best-effort tenants in declared
// shed-priority order (governor.PlanShed) instead of letting capacity
// errors propagate, and restores them through the breaker's half-open
// probe once pressure recedes.
package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// ErrAdmission is the sentinel wrapped by every admission rejection,
// so callers can distinguish "the fast tier is promised out" from
// structural errors with errors.Is and retry or degrade instead of
// aborting.
var ErrAdmission = errors.New("broker: admission denied")

// QoSClass is a tenant's service class.
type QoSClass int

const (
	// ClassGuaranteed: the tenant's share is pinned to its floor. It is
	// never shed and never donates to the arbiter.
	ClassGuaranteed QoSClass = iota
	// ClassBurstable: the share floats between the floor and the burst
	// limit under arbiter control. Never shed.
	ClassBurstable
	// ClassBestEffort: no floor; the share floats between zero and the
	// burst limit, and the broker-level breaker may shed it entirely
	// under aggregate pressure.
	ClassBestEffort
)

func (c QoSClass) String() string {
	switch c {
	case ClassGuaranteed:
		return "guaranteed"
	case ClassBurstable:
		return "burstable"
	case ClassBestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("QoSClass(%d)", int(c))
}

// TenantSpec declares one tenant's demands on the shared fast tier.
type TenantSpec struct {
	// Name identifies the tenant (metrics label, reports). Must be
	// unique among live tenants.
	Name string
	// Class is the QoS class.
	Class QoSClass
	// FloorBytes is the guaranteed fast-tier share. Admission promises
	// it; the arbiter never reclaims below it. Must be zero for
	// best-effort tenants.
	FloorBytes uint64
	// BurstBytes caps the share the arbiter may grant. Zero means the
	// floor (guaranteed semantics) for guaranteed tenants and
	// "unlimited" for the other classes.
	BurstBytes uint64
	// ShedPriority orders best-effort shedding: lower sheds first.
	ShedPriority int
	// SLOSeconds is the tenant's per-epoch simulated-latency SLO, for
	// reports (the broker does not enforce it; the harness asserts it).
	SLOSeconds float64
}

// limit returns the spec's effective share cap.
func (s TenantSpec) limit() uint64 {
	if s.BurstBytes == 0 {
		if s.Class == ClassGuaranteed {
			return s.FloorBytes
		}
		return ^uint64(0)
	}
	return s.BurstBytes
}

// Validate rejects specs that can never work.
func (s TenantSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("broker: tenant spec without a name")
	}
	if s.Class == ClassBestEffort && s.FloorBytes != 0 {
		return fmt.Errorf("broker: best-effort tenant %q with a %d-byte floor", s.Name, s.FloorBytes)
	}
	if s.BurstBytes != 0 && s.BurstBytes < s.FloorBytes {
		return fmt.Errorf("broker: tenant %q burst %d below floor %d", s.Name, s.BurstBytes, s.FloorBytes)
	}
	return nil
}

// Config holds the broker's tunables. The zero value takes defaults
// via WithDefaults.
type Config struct {
	// HighWatermark is the aggregate fast-tier occupancy fraction
	// (mapped + quarantined over capacity) above which the broker
	// breaker counts the epoch as degraded. Default 0.92.
	HighWatermark float64
	// LowWatermark is the occupancy the shed ladder drains down to.
	// Default 0.80.
	LowWatermark float64
	// QuantumBytes is the share the arbiter moves per rebalance grant.
	// Default 4 MiB.
	QuantumBytes uint64
	// Breaker configures the broker-level breaker (governor defaults).
	Breaker governor.Config
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.HighWatermark == 0 {
		c.HighWatermark = 0.92
	}
	if c.LowWatermark == 0 {
		c.LowWatermark = 0.80
	}
	if c.QuantumBytes == 0 {
		c.QuantumBytes = 4 << 20
	}
	c.Breaker = c.Breaker.WithDefaults()
	return c
}

// Signal is one tenant's per-epoch scorecard report to the arbiter.
type Signal struct {
	// Epoch is the tenant's own governed epoch (1-based).
	Epoch int
	// FastAccessShare is the fraction of the epoch's accesses served
	// from the fast tier.
	FastAccessShare float64
	// ResidentBytes is the tenant's fast-resident footprint.
	ResidentBytes uint64
	// EpochSeconds is the epoch's simulated wall time.
	EpochSeconds float64
	// MarginalDensity is the heat of the hottest chunk the tenant's
	// budget clipped — zero when the budget was not binding. The
	// arbiter grants the next quantum to the tenant with the hottest
	// marginal chunk.
	MarginalDensity float64
	// ColdestDensity is the heat of the coldest chunk the tenant kept.
	// The arbiter reclaims from the burstable tenant whose coldest
	// kept chunk is coldest.
	ColdestDensity float64
	// ClippedBytes is how much the budget forced the tenant's plan to
	// drop.
	ClippedBytes uint64
}

// Tenant is one admitted runtime's handle on the broker.
type Tenant struct {
	b    *Broker
	id   int
	spec TenantSpec

	share atomic.Uint64 // granted fast-tier share; written under b.mu
	shed  atomic.Bool   // true while the shed ladder holds the share at 0

	// Guarded by b.mu.
	sig      Signal
	reported bool
	departed bool
}

// ID is the tenant's memsim sub-ledger owner id (> 0).
func (t *Tenant) ID() int { return t.id }

// Broker returns the broker the tenant is admitted to.
func (t *Tenant) Broker() *Broker { return t.b }

// Name returns the spec name.
func (t *Tenant) Name() string { return t.spec.Name }

// Spec returns the admitted spec.
func (t *Tenant) Spec() TenantSpec { return t.spec }

// Share returns the currently granted share in bytes (zero while
// shed). Lock-free.
func (t *Tenant) Share() uint64 { return t.share.Load() }

// IsShed reports whether the broker-level breaker is currently
// shedding this tenant. Lock-free.
func (t *Tenant) IsShed() bool { return t.shed.Load() }

// Budget returns the tenant's effective fast-tier budget: the granted
// share minus the quarantine debit its own faults have retired from
// the shared tier. This is the fault-domain charge: a tenant's storm
// shrinks only its own budget.
func (t *Tenant) Budget() uint64 {
	share := t.share.Load()
	debit := t.b.sys.TenantUsage(t.id).QuarantinedBytes
	if debit >= share {
		return 0
	}
	return share - debit
}

// Report publishes the tenant's epoch signal to the arbiter.
func (t *Tenant) Report(sig Signal) {
	t.b.mu.Lock()
	defer t.b.mu.Unlock()
	t.sig = sig
	t.reported = true
}

// Depart detaches the tenant: its share and floor return to the pool,
// so a later Admit may claim them. Idempotent. The caller must
// have freed (or be about to free) the tenant's allocations; the
// memsim sub-ledger disowns them on Free.
func (t *Tenant) Depart() {
	t.b.depart(t)
}

// RebalanceReport describes one arbiter epoch, for reports and tests.
type RebalanceReport struct {
	// Epoch counts Rebalance calls (1-based).
	Epoch int
	// Pressure is the aggregate fast-tier occupancy fraction observed.
	Pressure float64
	// Breaker is the broker breaker's state after the epoch.
	Breaker governor.State
	// GrantedTo and GrantedBytes describe the epoch's grant ("" when
	// no tenant had a binding budget).
	GrantedTo    string
	GrantedBytes uint64
	// ReclaimedFrom names the burstable donor ("" when the free pool
	// covered the grant).
	ReclaimedFrom string
	// Shed and Restored name tenants the shed ladder dropped/restored
	// this epoch.
	Shed     []string
	Restored []string
}

// Broker arbitrates one shared System between tenants.
type Broker struct {
	sys *memsim.System
	cfg Config

	// placeMu serializes the tenants' phases, allocations, migrations
	// and health passes: a phase must see one mapping, and the
	// migration engines' staging reservations and the runtimes'
	// post-migration invariants assume no foreign migration is in
	// flight.
	placeMu sync.Mutex

	mu       sync.Mutex
	nextID   int
	tenants  map[string]*Tenant
	breaker  *governor.Breaker
	epoch    int
	shedList []*Tenant // tenants currently shed, in shed order
	shedding atomic.Bool
}

// New builds a broker over the shared system.
func New(sys *memsim.System, cfg Config) *Broker {
	cfg = cfg.WithDefaults()
	return &Broker{
		sys:     sys,
		cfg:     cfg,
		tenants: make(map[string]*Tenant),
		breaker: governor.NewBreaker(cfg.Breaker),
	}
}

// System returns the shared memory system.
func (b *Broker) System() *memsim.System { return b.sys }

// LockPlacement serializes a phase, allocation, migration or health
// pass against every other tenant's; pair with UnlockPlacement.
func (b *Broker) LockPlacement() { b.placeMu.Lock() }

// UnlockPlacement releases LockPlacement.
func (b *Broker) UnlockPlacement() { b.placeMu.Unlock() }

// Shedding reports whether the shed ladder currently holds any tenant
// at zero share. Lock-free (the /healthz endpoint reads it).
func (b *Broker) Shedding() bool { return b.shedding.Load() }

// Capacity returns the fast tier's configured capacity.
func (b *Broker) Capacity() uint64 {
	return b.sys.P.Tiers[memsim.TierFast].CapacityBytes
}

// floorsLocked sums the guaranteed floors of live tenants.
func (b *Broker) floorsLocked() uint64 {
	var sum uint64
	for _, t := range b.tenants {
		sum += t.spec.FloorBytes
	}
	return sum
}

// admissible reports whether spec's floor fits beside the live floors
// in `fast capacity − quarantined bytes` — the admission invariant.
// Callers hold b.mu.
func (b *Broker) admissibleLocked(spec TenantSpec) bool {
	avail := b.Capacity() - minU64(b.Capacity(), b.sys.Quarantined())
	return b.floorsLocked()+spec.FloorBytes <= avail
}

// Admit admits a tenant or rejects it with an error wrapping
// ErrAdmission when its guaranteed floor would oversubscribe the fast
// tier (shrunk by the quarantine ledger).
func (b *Broker) Admit(spec TenantSpec) (*Tenant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, live := b.tenants[spec.Name]; live {
		return nil, fmt.Errorf("broker: tenant %q already admitted", spec.Name)
	}
	if !b.admissibleLocked(spec) {
		return nil, fmt.Errorf("%w: tenant %q floor %d over capacity %d − %d quarantined − %d promised",
			ErrAdmission, spec.Name, spec.FloorBytes,
			b.Capacity(), b.sys.Quarantined(), b.floorsLocked())
	}
	b.nextID++
	t := &Tenant{b: b, id: b.nextID, spec: spec}
	t.share.Store(spec.FloorBytes)
	b.tenants[spec.Name] = t
	return t, nil
}

// depart removes the tenant.
func (b *Broker) depart(t *Tenant) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.departed {
		return
	}
	t.departed = true
	delete(b.tenants, t.spec.Name)
	for i, s := range b.shedList {
		if s == t {
			b.shedList = append(b.shedList[:i], b.shedList[i+1:]...)
			break
		}
	}
	b.shedding.Store(len(b.shedList) > 0)
	t.share.Store(0)
}

// pressureLocked returns aggregate fast-tier occupancy: mapped plus
// quarantined bytes over capacity.
func (b *Broker) pressureLocked() float64 {
	cap := b.Capacity()
	if cap == 0 {
		return 1
	}
	return float64(b.sys.Used(memsim.TierFast)+b.sys.Quarantined()) / float64(cap)
}

// Rebalance runs one arbiter epoch: drive the broker-level breaker
// from aggregate pressure (shedding/restoring best-effort tenants
// through its state machine), then move one quantum of share to the
// tenant whose marginal chunk is hottest — from the free pool when it
// covers the grant, otherwise reclaimed from the burstable tenant
// whose coldest kept chunk is coldest. Call it between epoch rounds,
// with no tenant mid-migration.
func (b *Broker) Rebalance() RebalanceReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.epoch++
	rep := RebalanceReport{Epoch: b.epoch, Pressure: b.pressureLocked()}
	degraded := rep.Pressure > b.cfg.HighWatermark

	switch b.breaker.Decide() {
	case governor.DecisionSkip:
		// Open: the shed set holds while the cooldown runs down.
	case governor.DecisionProbe:
		// Half-open: when pressure has receded, restore one rung as
		// the probe; the breaker judges the epoch either way.
		if !degraded {
			if name := b.restoreOneLocked(); name != "" {
				rep.Restored = append(rep.Restored, name)
			}
		}
		b.breaker.Observe(degraded)
		if b.breaker.State() == governor.StateClosed {
			// Probe succeeded: the storm is over, restore the rest.
			for {
				name := b.restoreOneLocked()
				if name == "" {
					break
				}
				rep.Restored = append(rep.Restored, name)
			}
		}
	default: // run
		b.breaker.Observe(degraded)
		if b.breaker.State() == governor.StateOpen {
			target := governor.DemotionTarget(b.sys.Used(memsim.TierFast)+b.sys.Quarantined(),
				b.Capacity(), b.cfg.HighWatermark, b.cfg.LowWatermark)
			rep.Shed = b.shedLocked(target)
		}
	}
	rep.Breaker = b.breaker.State()

	if b.breaker.State() == governor.StateClosed {
		b.arbitrateLocked(&rep)
	}
	return rep
}

// shedLocked walks the best-effort shed ladder until target bytes of
// share are reclaimed, returning the shed tenant names.
func (b *Broker) shedLocked(target uint64) []string {
	var ladder []*Tenant
	for _, t := range b.tenants {
		if t.spec.Class == ClassBestEffort && !t.shed.Load() {
			ladder = append(ladder, t)
		}
	}
	sort.Slice(ladder, func(i, j int) bool {
		if ladder[i].spec.ShedPriority != ladder[j].spec.ShedPriority {
			return ladder[i].spec.ShedPriority < ladder[j].spec.ShedPriority
		}
		return ladder[i].spec.Name < ladder[j].spec.Name
	})
	steps := make([]governor.ShedStep, len(ladder))
	for i, t := range ladder {
		steps[i] = governor.ShedStep{Name: t.spec.Name, Bytes: t.share.Load()}
	}
	n := governor.PlanShed(steps, target)
	shed := make([]string, 0, n)
	for _, t := range ladder[:n] {
		t.share.Store(0)
		t.shed.Store(true)
		b.shedList = append(b.shedList, t)
		shed = append(shed, t.spec.Name)
	}
	b.shedding.Store(len(b.shedList) > 0)
	return shed
}

// restoreOneLocked un-sheds the most recently shed tenant (reverse
// shed order: the highest-priority share returns first) and returns
// its name, or "" when nothing is shed. The restored tenant restarts
// from zero share and re-earns it through the arbiter.
func (b *Broker) restoreOneLocked() string {
	if len(b.shedList) == 0 {
		return ""
	}
	t := b.shedList[len(b.shedList)-1]
	b.shedList = b.shedList[:len(b.shedList)-1]
	t.shed.Store(false)
	b.shedding.Store(len(b.shedList) > 0)
	return t.spec.Name
}

// arbitrateLocked performs the epoch's share moves. Every tenant whose
// budget was binding (nonzero marginal density) is a grant candidate,
// served hottest-marginal first from the free pool; only the hottest
// may additionally reclaim from the coldest burstable donor above its
// floor when the pool runs dry.
func (b *Broker) arbitrateLocked(rep *RebalanceReport) {
	var hungry []*Tenant
	for _, t := range b.tenants {
		if t.shed.Load() || !t.reported || t.sig.MarginalDensity <= 0 {
			continue
		}
		if t.share.Load() >= t.spec.limit() {
			continue
		}
		hungry = append(hungry, t)
	}
	if len(hungry) == 0 {
		return
	}
	sort.Slice(hungry, func(i, j int) bool {
		if hungry[i].sig.MarginalDensity != hungry[j].sig.MarginalDensity {
			return hungry[i].sig.MarginalDensity > hungry[j].sig.MarginalDensity
		}
		return hungry[i].spec.Name < hungry[j].spec.Name
	})

	// Free pool: capacity minus quarantine not attributed to any
	// tenant (attributed debits are already charged inside the owning
	// tenant's budget) minus the promised shares.
	var shares, attributed uint64
	for _, t := range b.tenants {
		shares += t.share.Load()
		attributed += b.sys.TenantUsage(t.id).QuarantinedBytes
	}
	unattr := b.sys.Quarantined() - minU64(b.sys.Quarantined(), attributed)
	pool := b.Capacity() - minU64(b.Capacity(), unattr+shares)

	for i, t := range hungry {
		quantum := minU64(b.cfg.QuantumBytes, t.spec.limit()-t.share.Load())
		grant := minU64(quantum, pool)
		pool -= grant
		if i == 0 && grant < quantum {
			// The hottest tenant outranks cold shares: reclaim the
			// remainder from the coldest donor above its floor.
			if donor := b.coldestDonorLocked(t); donor != nil {
				take := minU64(quantum-grant, donor.share.Load()-donor.spec.FloorBytes)
				donor.share.Store(donor.share.Load() - take)
				grant += take
				rep.ReclaimedFrom = donor.spec.Name
			}
		}
		if grant == 0 {
			continue
		}
		t.share.Store(t.share.Load() + grant)
		if rep.GrantedTo == "" {
			rep.GrantedTo = t.spec.Name
			rep.GrantedBytes = grant
		}
	}
}

// coldestDonorLocked picks the reclaim victim: a non-guaranteed tenant
// above its floor whose own budget is not binding, coldest kept chunk
// first, deterministic name tie-break.
func (b *Broker) coldestDonorLocked(grantee *Tenant) *Tenant {
	var donor *Tenant
	for _, t := range b.tenants {
		if t == grantee || t.shed.Load() || !t.reported {
			continue
		}
		if t.spec.Class == ClassGuaranteed || t.share.Load() <= t.spec.FloorBytes {
			continue
		}
		if t.sig.MarginalDensity > 0 {
			continue // its own budget is binding; not a donor
		}
		if donor == nil ||
			t.sig.ColdestDensity < donor.sig.ColdestDensity ||
			(t.sig.ColdestDensity == donor.sig.ColdestDensity && t.spec.Name < donor.spec.Name) {
			donor = t
		}
	}
	return donor
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
