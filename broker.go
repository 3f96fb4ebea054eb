package atmem

// This file is the broker attachment surface: the public aliases for
// internal/broker, the broker constructor over a shared simulated HMS,
// and the runtime-side hooks every runtime uses (a solo runtime is the
// one tenant of a private broker) — per-epoch budget enforcement lives
// in governor.go, the scorecard→arbiter signal below, and the
// cross-tenant placement lock that serializes phases, allocations,
// migrations and health passes against every co-tenant.

import (
	"atmem/internal/broker"
	"atmem/internal/memsim"
)

// Broker arbitrates one shared fast tier between tenant runtimes; see
// internal/broker for the admission, arbiter, and shed-ladder
// semantics.
type Broker = broker.Broker

// BrokerConfig holds the broker's tunables (watermarks, grant quantum,
// breaker).
type BrokerConfig = broker.Config

// TenantSpec declares one tenant's QoS class, guaranteed floor, burst
// limit, shed priority, and per-epoch latency SLO.
type TenantSpec = broker.TenantSpec

// Tenant is an admitted tenant's handle; pass it to WithTenant to
// attach a runtime.
type Tenant = broker.Tenant

// QoSClass is a tenant's service class.
type QoSClass = broker.QoSClass

// The three QoS classes: guaranteed tenants keep their floor pinned
// and are never shed; burstable tenants float between floor and burst
// under arbiter control; best-effort tenants have no floor and are
// shed first under aggregate pressure.
const (
	ClassGuaranteed = broker.ClassGuaranteed
	ClassBurstable  = broker.ClassBurstable
	ClassBestEffort = broker.ClassBestEffort
)

// ErrAdmission is the sentinel every admission rejection wraps; test
// with errors.Is.
var ErrAdmission = broker.ErrAdmission

// NewBroker builds a broker over a fresh shared memory system for the
// given testbed. Attach runtimes with:
//
//	bk := atmem.NewBroker(atmem.NVMDRAM(), atmem.BrokerConfig{})
//	tn, err := bk.Admit(atmem.TenantSpec{Name: "svc-a", Class: atmem.ClassGuaranteed, FloorBytes: 24 << 20})
//	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithTenant(tn), ...)
//
// Every tenant runtime allocates from the same simulated system; the
// broker's arbiter rebalances their fast-tier shares once per epoch
// round (call Broker.Rebalance between rounds).
func NewBroker(tb Testbed, cfg BrokerConfig) *Broker {
	return broker.New(memsim.NewSystem(tb.params), cfg)
}

// lockPlacement serializes this runtime's phases, allocations,
// migrations and health passes against every co-tenant's: a phase must
// see one mapping, and the migration engines' staging reservations and
// the post-migration invariant checker assume no foreign migration is
// in flight. A solo runtime's private broker has no co-tenant, so its
// lock is never contended.
func (r *Runtime) lockPlacement() { r.tenant.Broker().LockPlacement() }

func (r *Runtime) unlockPlacement() { r.tenant.Broker().UnlockPlacement() }

// reportTenantSignal publishes the epoch's scorecard-derived signal to
// the broker's arbiter: the fast-access share and latency for SLO
// tracking, and the plan's marginal/coldest densities — the grant and
// reclaim signals the arbiter rebalances on.
func (r *Runtime) reportTenantSignal(sc *Scorecard) {
	sig := broker.Signal{
		Epoch:           sc.Epoch,
		FastAccessShare: sc.FastAccessShare,
		ResidentBytes:   sc.ResidentBytes,
		EpochSeconds:    sc.PhaseSeconds + sc.MigrationSeconds + sc.ScrubSeconds,
	}
	if p := r.plan; p != nil {
		sig.MarginalDensity = p.MarginalDensity
		sig.ColdestDensity = p.ColdestKeptDensity
		sig.ClippedBytes = p.ClippedBytes
	}
	r.tenant.Report(sig)
}
