package atmem

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"atmem/internal/broker"
	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/pebs"
	"atmem/internal/telemetry"
)

// Runtime is one ATMem session on one simulated HMS: it places on its
// broker's memory system (a private one unless WithTenant shares it)
// and owns the data-object registry, the sampling profiler, and the
// migration engine, and implements the paper's Listing-1 API
// (atmem_malloc/atmem_free/atmem_profiling_start/atmem_profiling_stop/
// atmem_optimize).
//
// A Runtime is not safe for concurrent use except inside RunPhase, which
// runs the supplied kernel on all simulated threads in parallel.
type Runtime struct {
	testbed Testbed
	opts    Options
	policy  PlacementPolicy
	sys     *memsim.System
	reg     *core.Registry
	prof    *pebs.Profiler
	engine  migrate.Engine
	faults  *faultinject.Injector

	objects   map[uint64]*Object
	accessors []*memsim.Accessor

	plan     *core.Plan
	phases   []PhaseResult
	profiled bool

	// lastMig is the record of the most recent placement (Optimize, an
	// epoch's placement, or a replayed plan epoch), built in place by
	// optimizeGoverned or applyPlanEpoch and completed by endPlacement
	// (observe.go).
	lastMig MigrationReport

	// Governor state (see governor.go).
	govCfg  governor.Config
	breaker *governor.Breaker
	epoch   int

	// Compiled-plan record/replay state (see replay.go). recording is
	// non-nil while a run's placement decisions are being
	// recorded; armedPlan is non-nil while a cached plan is replaying
	// (planEpoch counts the plan epochs applied so far, and backlog holds
	// the replayed promotions and drained chunks the budget deferred);
	// planVerdict is the last ArmPlan lookup outcome.
	planCache   *PlanCache
	recording   *CompiledPlan
	armedPlan   *CompiledPlan
	planEpoch   int
	backlog     []migrate.Region
	planVerdict LookupVerdict

	// Tier-health state (see health.go). board scores per-granule
	// errors and decides trust; scrub holds the CRC references and
	// backups of fast-resident chunks; heal accumulates the
	// self-healing counters surfaced on MigrationReport.Health.
	board *health.Scoreboard
	scrub *health.Scrubber
	heal  healthCounters

	// Telemetry state (see telemetry.go). simNS is the simulated-clock
	// cursor in nanoseconds, advanced by phase wall time and modelled
	// migration time; rec is nil when telemetry is off; traced is how
	// far the trace has drained the transition logs (observe.go).
	rec      *telemetry.Recorder
	simNS    atomic.Uint64
	profOpen bool
	traced   traceCursor

	// Live-metrics state (see metrics.go and debug.go). met is nil when
	// metrics are off; scorecards accumulates one placement-quality row
	// per governed epoch (regardless of met); lastScore is the atomic
	// slot the debug listener's /epochz reads mid-run; scrubChargedNS
	// totals the simulated time the CRC scrubber has charged (control
	// plane only — epoch boundaries diff it); debug is the opt-in HTTP
	// listener.
	met            *metricsSet
	scorecards     []Scorecard
	lastScore      atomic.Pointer[Scorecard]
	scrubChargedNS uint64
	debug          *debugServer

	// Broker attachment (see broker.go). Every runtime is a broker
	// tenant: one built with WithTenant joins that tenant's broker, any
	// other is the one guaranteed tenant of a private broker whose floor
	// is the whole fast tier. The memory system is the broker's, Malloc
	// adopts allocations into the tenant's memsim sub-ledger, the
	// governed budget is capped by the granted share, and Close departs.
	// tenant is set at construction and never cleared. breakerOpenA
	// mirrors the breaker's open/half-open state atomically for the
	// debug listener's /healthz (the breaker itself is single-threaded
	// control-plane state).
	tenant       *Tenant
	breakerOpenA atomic.Bool

	// Overlapped-placement state (see async.go). While overlapping is
	// set, commitSchedule adds a placement's modelled seconds to pendingS
	// instead of the clock; the next epoch's join settles them.
	overlapping   bool
	pendingS      float64 // deferred placement seconds awaiting the join
	overlapTotalS float64 // cumulative overlapped migration seconds
	stolenTotalS  float64 // cumulative stolen-bandwidth seconds
}

// newRuntime builds the runtime New configured. Everything that can
// fail is checked before the runtime touches its memory system, and the
// fault injector is hooked in last: a failed construction must leave a
// broker's shared system exactly as it found it.
func newRuntime(tb Testbed, o Options) (*Runtime, error) {
	o = o.withDefaults()
	p := tb.params
	if o.Tenant != nil {
		// A tenant runtime lives on its broker's shared system: the
		// broker's parameters are the ground truth (the testbed argument
		// only shapes this runtime's accessor count via Threads).
		p = o.Tenant.Broker().System().P
	}
	if o.Threads > 0 {
		p.Threads = o.Threads
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := o.Analyzer.Validate(); err != nil {
		return nil, err
	}
	if err := validatePolicy(o.Placement); err != nil {
		return nil, err
	}
	if o.Health.Enabled {
		if err := o.Health.Policy.Validate(); err != nil {
			return nil, err
		}
	}
	gcfg := o.Governor.governorConfig()
	if err := gcfg.Validate(); err != nil {
		return nil, err
	}
	tb.params = p
	tn := o.Tenant
	if tn == nil {
		// A solo runtime is the one tenant of a private broker,
		// guaranteed the whole fast tier, so it places under the same
		// sub-ledger and placement lock as any co-tenant.
		bk := broker.New(memsim.NewSystem(p), broker.Config{})
		var err error
		tn, err = bk.Admit(broker.TenantSpec{
			Name:       "solo",
			Class:      broker.ClassGuaranteed,
			FloorBytes: p.Tiers[memsim.TierFast].CapacityBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	r := &Runtime{
		testbed: tb,
		opts:    o,
		policy:  o.Placement,
		sys:     tn.Broker().System(),
		tenant:  tn,
		reg:     core.NewRegistry(o.Analyzer),
		objects: make(map[uint64]*Object),
		govCfg:  gcfg,
		breaker: governor.NewBreaker(gcfg),
	}
	if o.Health.Enabled {
		r.board = health.NewScoreboard(o.Health.Policy)
		if o.Health.Scrub {
			r.scrub = health.NewScrubber()
		}
	}
	period := o.SamplePeriod
	if period == 0 {
		period = pebs.DefaultConfig().Period
	}
	r.prof = pebs.New(pebs.Config{
		Period:           period,
		SampleOverheadNS: o.SampleOverheadNS,
	}, p.ClockGHz)
	r.engine = o.newEngine(p.Threads)
	r.accessors = make([]*memsim.Accessor, p.Threads)
	for i := range r.accessors {
		r.accessors[i] = r.sys.NewAccessor()
		ts := r.prof.ThreadSampler(i)
		r.accessors[i].SetMissHook(ts.OnMiss)
	}
	r.planCache = o.PlanCache
	r.rec = o.Recorder
	r.rec.SetSimClock(r.simNS.Load)
	tenantLabel := ""
	if o.Tenant != nil {
		tenantLabel = o.Tenant.Name()
	}
	r.met = newMetricsSet(o.Metrics, tenantLabel)
	if o.DebugAddr != "" {
		d, err := startDebugServer(o.DebugAddr, r)
		if err != nil {
			return nil, err
		}
		r.debug = d
	}
	if o.FaultSchedule != nil {
		r.faults = faultinject.New(*o.FaultSchedule)
		r.sys.SetFaultHook(r.faults)
	}
	return r, nil
}

// Testbed returns the testbed the runtime simulates.
func (r *Runtime) Testbed() Testbed { return r.testbed }

// Options returns the effective options.
func (r *Runtime) Options() Options { return r.opts }

// Threads returns the simulated thread count.
func (r *Runtime) Threads() int { return len(r.accessors) }

// System exposes the underlying simulator (for tests and the harness).
func (r *Runtime) System() *memsim.System { return r.sys }

// FaultEvents returns the faults injected so far under
// Options.FaultSchedule, in firing order (nil without a schedule).
func (r *Runtime) FaultEvents() []faultinject.Event {
	if r.faults == nil {
		return nil
	}
	return r.faults.Events()
}

// DisarmFaults permanently stops Options.FaultSchedule from injecting
// further faults; already-recorded FaultEvents survive. Scenarios use it
// to model a fault condition clearing mid-run (e.g. the governor's
// breaker must close again once a storm ends). No-op without a schedule.
func (r *Runtime) DisarmFaults() {
	if r.faults != nil {
		r.faults.Disarm()
	}
}

// ArmFaults appends fault rules to the injector at runtime. Chaos
// scenarios use it to aim range-scoped persistent or corruption faults
// at addresses that are only known after allocation (a schedule given
// at construction cannot reference them). An injector is created on
// first use if Options.FaultSchedule was nil.
func (r *Runtime) ArmFaults(faults ...faultinject.Fault) {
	if r.faults == nil {
		r.faults = faultinject.New(faultinject.Schedule{})
		r.sys.SetFaultHook(r.faults)
	}
	r.faults.Arm(faults...)
}

// Registry exposes the data-object registry (for tests and the harness).
func (r *Runtime) Registry() *core.Registry { return r.reg }

// allocTier resolves the policy's allocation-time placement for a new
// allocation. Unknown policies cannot reach here: the constructor
// validated the policy, so every allocation mode is a defined one.
func (r *Runtime) allocTier(size uint64) memsim.Tier {
	switch r.allocMode() {
	case AllocFast:
		return memsim.TierFast
	case AllocPrefer:
		// Mirror Alloc's mapping granularity: big objects are
		// huge-page backed and consume 2 MiB-rounded capacity.
		align := uint64(memsim.SmallPage)
		if size >= memsim.HugePage {
			align = memsim.HugePage
		}
		if r.sys.FreeCapacity(memsim.TierFast) >= memsim.RoundUp(size, align) {
			return memsim.TierFast
		}
		return memsim.TierSlow
	default:
		return memsim.TierSlow
	}
}

// Malloc is atmem_malloc (Listing 1): it allocates size bytes of
// simulated memory according to the placement policy and registers the
// object with the profiler/analyzer under the given name. It holds the
// broker's placement lock, so it never lands in a co-tenant's phase.
func (r *Runtime) Malloc(name string, size uint64) (*Object, error) {
	r.lockPlacement()
	defer r.unlockPlacement()
	var base uint64
	var err error
	if r.allocMode() == AllocPrefer {
		// `numactl -p` semantics: fill the fast memory page by page
		// in allocation order, spilling to the large memory when full.
		base, err = r.sys.AllocPrefer(size)
	} else {
		base, err = r.sys.Alloc(size, r.allocTier(size))
	}
	if err != nil {
		return nil, fmt.Errorf("atmem: malloc %q: %w", name, err)
	}
	do, err := r.reg.Register(name, base, size)
	if err != nil {
		// Roll the mapping back: registration failures must not leak
		// address space. A failed rollback is reported to the caller
		// joined with the registration error, never as a crash.
		if ferr := r.sys.Free(base, size); ferr != nil {
			return nil, errors.Join(err,
				fmt.Errorf("atmem: malloc %q: rollback of mapping [%#x,+%#x) failed: %w",
					name, base, size, ferr))
		}
		return nil, err
	}
	o := &Object{
		rt:   r,
		name: name,
		base: base,
		size: size,
		data: make([]byte, size),
		do:   do,
	}
	r.objects[base] = o
	// Adopt the mapped extent into the tenant's memsim sub-ledger so
	// fast-tier pages and quarantine debits are charged to this runtime,
	// whole pages included, as the tier's capacity counts them. Free
	// disowns the same extent.
	r.sys.AdoptRange(r.tenant.ID(), base, r.sys.Extent(base, size))
	return o, nil
}

// Free is atmem_free (Listing 1). Like Malloc it holds the broker's
// placement lock.
func (r *Runtime) Free(o *Object) error {
	r.lockPlacement()
	defer r.unlockPlacement()
	if o == nil || o.rt != r {
		return fmt.Errorf("atmem: free of foreign object")
	}
	if _, ok := r.objects[o.base]; !ok {
		return fmt.Errorf("atmem: double free of %q", o.name)
	}
	if err := r.reg.Unregister(o.base); err != nil {
		return err
	}
	if err := r.sys.Free(o.base, o.size); err != nil {
		return err
	}
	delete(r.objects, o.base)
	o.data = nil
	return nil
}

// SetCapacityReserve adjusts the fast-tier holdback between epochs —
// the shrinking-budget scenario (§1's shared server). It does not move
// data by itself: the next epoch's placement budget is the registered
// fast bytes plus the free fast capacity less the reserve, so a raised
// reserve first stops growth and, once it exceeds the free capacity,
// drains the resident set (pressure demotions, then the admission
// step's drain), online and on replay alike, down to what it leaves.
func (r *Runtime) SetCapacityReserve(bytes uint64) {
	r.opts.CapacityReserve = bytes
}

// Objects returns the live objects in registration-independent (address)
// order via the registry.
func (r *Runtime) Objects() []*Object {
	out := make([]*Object, 0, len(r.objects))
	for _, do := range r.reg.Objects() {
		if o, ok := r.objects[do.Base]; ok {
			out = append(out, o)
		}
	}
	return out
}

// ProfilingStart is atmem_profiling_start (Listing 1): it clears previous
// samples, auto-adjusts the sampling period from the registered footprint
// (§5.1) unless a fixed period was configured, and enables collection.
func (r *Runtime) ProfilingStart() {
	if r.profOpen {
		// A restarted window discards the previous samples; close its
		// span so the trace stays balanced.
		r.rec.End("profile", "window", telemetry.Args{"restarted": true})
		r.profOpen = false
	}
	r.prof.Reset()
	if r.opts.SamplePeriod == 0 {
		period := pebs.AutoPeriod(
			r.reg.TotalBytes(),
			r.sys.P.LineBytes,
			r.reg.TotalChunks(),
			r.Threads(),
			r.opts.Analyzer.TargetSamplesPerChunk,
			16, 1<<16,
		)
		r.prof.SetPeriod(period)
	}
	r.prof.Start()
	r.rec.Begin("profile", "window", telemetry.Args{
		"period": r.prof.Config().Period,
	})
	r.profOpen = true
}

// ProfilingStop is atmem_profiling_stop (Listing 1): it disables
// collection and attributes the captured samples to data chunks.
// It returns the number of samples attributed to registered objects.
func (r *Runtime) ProfilingStop() int {
	r.prof.Stop()
	n := r.reg.AttributeSamples(r.prof.Samples())
	r.profiled = n > 0 || r.profiled
	if r.profOpen {
		r.rec.End("profile", "window", telemetry.Args{
			"samples_attributed": n,
			"samples_captured":   r.prof.SampleCount(),
		})
		r.profOpen = false
	}
	r.emitChunkHeat()
	return n
}

// SamplePeriod returns the profiler period in force.
func (r *Runtime) SamplePeriod() uint64 { return r.prof.Config().Period }

// SampleCount returns the number of samples captured so far.
func (r *Runtime) SampleCount() int { return r.prof.SampleCount() }

// Optimize is atmem_optimize (Listing 1): it runs the two-stage analyzer
// over the attributed samples, then migrates the selected bytes not yet
// on the high-performance memory there with the configured engine. It
// returns the migration statistics. It is one step of the governed
// placement every epoch runs: the report carries the breaker's epoch
// and state, and the promoted, demoted and resident bytes.
//
// Optimize consumes partial success: the engines are transactional per
// region, so recoverable faults (capacity exhaustion, injected faults)
// surface as retried/skipped counts in the MigrationReport, not as an
// error. TLB and cache entries are invalidated for exactly the slices
// whose remap committed — a region that failed and rolled back leaves
// the threads' translations valid. After migration a post-condition
// checker enforces the safety invariants (no leaked staging
// reservations, page-table totals matching the capacity ledger, object
// bytes bit-identical); a violation is a bug in the migration machinery
// and is returned as an error.
func (r *Runtime) Optimize() (MigrationReport, error) {
	return r.OptimizeCtx(context.Background())
}

// OptimizeCtx is Optimize with cancellation: a cancelled ctx stops the
// migration plan at the next region (or staging-slice) boundary, rolls
// a region caught mid-copy back via the per-region transaction, and
// reports the unfinished regions as skipped outcomes — in-band partial
// success, not an error. It is the same placement path every epoch runs
// (optimizeGoverned): one breaker decision, hysteresis and pressure
// demotions, and the admission step's budget.
func (r *Runtime) OptimizeCtx(ctx context.Context) (MigrationReport, error) {
	return r.optimizeGoverned(ctx)
}

// commitSchedule is the one migration-commit path. It runs sched
// (demotions first) through the transactional engine, charges the
// modelled time to the simulated clock — or, for an overlapped epoch's
// placement, defers it to the next epoch's join (reconcileOverlap) —
// and commits what moved: the stale TLB and cache entries of exactly
// the committed slices are invalidated. Residency needs no update here,
// because the page table is its only record. An error is an
// unrecoverable failed rollback; nothing is committed then.
func (r *Runtime) commitSchedule(ctx context.Context, sched migrate.Schedule) (migrate.ScheduleResult, error) {
	startNS := r.simNS.Load()
	var sink migrate.EventSink
	if r.rec.Enabled() {
		sink = func(ev migrate.Event) { r.emitMigrationEvent(startNS, ev) }
	}
	res, err := migrate.RunSchedule(ctx, r.engine, r.sys, sched, sink)
	if r.overlapping {
		r.pendingS += res.Merged.Seconds
	} else {
		r.simNS.Add(uint64(res.Merged.Seconds * 1e9))
	}
	if err != nil {
		return res, err
	}
	r.invalidateMoved(res.Merged.Moved)
	return res, nil
}

// invalidateMoved drops the stale TLB and cache entries of exactly the
// committed migration slices (rolled-back and skipped regions kept their
// placement, so their translations stay valid). No phase runs during a
// placement, so the invalidation goes straight into every accessor.
func (r *Runtime) invalidateMoved(moved []migrate.Region) {
	for _, a := range r.accessors {
		for _, rg := range moved {
			a.InvalidateTLBRange(rg.Base, rg.Size)
			a.InvalidateCacheRange(rg.Base, rg.Size)
		}
	}
}

// crcTable backs the object-data checksums of the migration invariant
// checker; Castagnoli is hardware-accelerated on the platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// objectChecksums fingerprints every registered object's byte backing.
func (r *Runtime) objectChecksums() map[uint64]uint32 {
	out := make(map[uint64]uint32, len(r.objects))
	for base, o := range r.objects {
		if o.data != nil {
			out[base] = crc32.Checksum(o.data, crcTable)
		}
	}
	return out
}

// verifyMigrationInvariants is the post-migration checker: whatever mix
// of migrated, retried, and skipped regions Optimize produced, the
// system must hold the safety invariants — no staging reservation
// outlives the migration, the page table and the capacity ledger agree,
// and no object's bytes changed (migration remaps pages; it never edits
// values).
func (r *Runtime) verifyMigrationInvariants(pre map[uint64]uint32) error {
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if res := r.sys.Reserved(t); res != 0 {
			return fmt.Errorf("leaked %d reserved bytes on tier %s", res, t)
		}
	}
	if err := r.sys.CheckConsistency(); err != nil {
		return err
	}
	for base, want := range pre {
		o, ok := r.objects[base]
		if !ok || o.data == nil {
			return fmt.Errorf("object at %#x vanished during migration", base)
		}
		if got := crc32.Checksum(o.data, crcTable); got != want {
			return fmt.Errorf("object %q bytes changed during migration (crc %#x -> %#x)", o.name, want, got)
		}
	}
	return nil
}

// Plan returns the analyzer's most recent placement plan (nil before the
// first Optimize).
func (r *Runtime) Plan() *core.Plan { return r.plan }

// Ctx is the per-thread execution context handed to RunPhase kernels.
type Ctx struct {
	acc *memsim.Accessor
	// ID is this simulated thread's index in [0, NumThreads).
	ID int
	// NumThreads is the simulated thread count of the phase.
	NumThreads int
}

// Compute charges cycles of ALU/control work to the thread.
func (c *Ctx) Compute(cycles float64) { c.acc.Compute(cycles) }

// Load simulates a raw read of size bytes at a virtual address. Most code
// should use the typed Array views instead.
func (c *Ctx) Load(addr uint64, size uint32) { c.acc.Load(addr, size) }

// Store simulates a raw write of size bytes at a virtual address.
func (c *Ctx) Store(addr uint64, size uint32) { c.acc.Store(addr, size) }

// LoadRange simulates count sequential raw reads of elemSize bytes
// starting at addr, charged per cache line (see Accessor.LoadRange).
func (c *Ctx) LoadRange(addr uint64, elemSize uint32, count int) {
	c.acc.LoadRange(addr, elemSize, count)
}

// StoreRange simulates count sequential raw writes of elemSize bytes
// starting at addr.
func (c *Ctx) StoreRange(addr uint64, elemSize uint32, count int) {
	c.acc.StoreRange(addr, elemSize, count)
}

// Range splits n work items into this thread's contiguous share,
// returning [lo, hi).
func (c *Ctx) Range(n int) (lo, hi int) {
	per := (n + c.NumThreads - 1) / c.NumThreads
	lo = c.ID * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// RunPhase executes kernel on every simulated thread in parallel, with
// counters reset at phase entry and cache/TLB state carried over from
// previous phases (the paper measures the warm second iteration, §6). It
// returns the phase's simulated time and event statistics.
//
// No placement, health pass or allocation runs while a phase does, so
// every access of the phase sees one mapping. The phase holds the
// broker's placement lock, which keeps co-tenants' placements and
// allocations out of it.
func (r *Runtime) RunPhase(name string, kernel func(c *Ctx)) PhaseResult {
	r.lockPlacement()
	defer r.unlockPlacement()
	r.rec.Begin("phase", name, nil)
	for _, a := range r.accessors {
		a.ResetCounters()
	}
	var wg sync.WaitGroup
	for i := range r.accessors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kernel(&Ctx{acc: r.accessors[i], ID: i, NumThreads: len(r.accessors)})
		}(i)
	}
	wg.Wait()
	pr := PhaseResult{
		Name:  name,
		Stats: r.sys.ReducePhase(r.accessors),
	}
	r.phases = append(r.phases, pr)
	// The simulated clock advances by the phase's wall time; the span
	// End therefore lands at the phase's end on the sim axis.
	r.simNS.Add(uint64(pr.Stats.WallSeconds * 1e9))
	r.endPhase(&pr)
	return pr
}

// Phases returns the results of all phases run so far.
func (r *Runtime) Phases() []PhaseResult { return r.phases }

// SimSeconds returns the simulated clock: total simulated seconds of
// every phase plus the charged share of every migration so far (the
// full modelled time under stop-the-world placement; only the excess
// and stolen-bandwidth share under overlapped placement, once the next
// epoch's join or DrainAsync settles it).
func (r *Runtime) SimSeconds() float64 { return float64(r.simNS.Load()) / 1e9 }
