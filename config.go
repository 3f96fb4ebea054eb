// Package atmem is a reproduction of ATMem (CGO 2020): a runtime
// framework for adaptive-granularity data placement of graph-application
// data on heterogeneous memory systems (HMS).
//
// The package exposes the paper's Listing-1 API — register data objects,
// profile one iteration with a sampling profiler, then Optimize to migrate
// the critical data chunks onto the high-performance memory — on top of a
// simulated HMS (see internal/memsim and DESIGN.md for the calibration of
// the two testbeds against the paper's hardware).
//
// A minimal session:
//
//	rt, _ := atmem.New(atmem.NVMDRAM())
//	ranks, _ := atmem.NewArray[float64](rt, "ranks", n)
//	rt.ProfilingStart()
//	rt.RunPhase("iter0", func(c *atmem.Ctx) { ... ranks.Load(c, i) ... })
//	rt.ProfilingStop()
//	rt.Optimize()
//	res := rt.RunPhase("iter1", func(c *atmem.Ctx) { ... })
package atmem

import (
	"fmt"

	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/metrics"
	"atmem/internal/migrate"
	"atmem/internal/pebs"
	"atmem/internal/telemetry"
)

// Testbed selects one of the two simulated HMS platforms of the paper's
// Table 1.
type Testbed struct {
	params memsim.SystemParams
}

// Params returns a copy of the underlying simulator parameters.
func (t Testbed) Params() memsim.SystemParams { return t.params }

// Name returns the testbed name ("nvm-dram" or "mcdram-dram").
func (t Testbed) Name() string { return t.params.Name }

// NVMDRAM returns the Intel Optane NVM + DDR4 DRAM testbed: DRAM is the
// small fast tier, Optane the large slow tier.
func NVMDRAM() Testbed { return Testbed{params: memsim.NVMDRAMParams()} }

// MCDRAMDRAM returns the Knights Landing testbed: MCDRAM is the small
// high-bandwidth tier, DDR4 the large tier.
func MCDRAMDRAM() Testbed { return Testbed{params: memsim.MCDRAMDRAMParams()} }

// CustomTestbed wraps caller-provided simulator parameters (validated at
// New).
func CustomTestbed(p memsim.SystemParams) Testbed { return Testbed{params: p} }

// MigrationMechanism selects the engine Optimize uses to move data.
type MigrationMechanism int

const (
	// MigrateATMem is the paper's multi-stage multi-threaded
	// application-level migration (§4.4).
	MigrateATMem MigrationMechanism = iota
	// MigrateMbind is the system-service baseline (§2.3).
	MigrateMbind
)

func (m MigrationMechanism) String() string {
	switch m {
	case MigrateATMem:
		return "atmem"
	case MigrateMbind:
		return "mbind"
	}
	return fmt.Sprintf("MigrationMechanism(%d)", int(m))
}

// Options configures a Runtime beyond the testbed.
type Options struct {
	// Placement is the placement policy (see PlacementPolicy):
	// PaperPolicy (the default), AllFastPolicy, PreferFastPolicy,
	// OraclePolicy, LearnedPolicy, StaticPolicy, or a caller-defined
	// implementation. Policies are validated at construction.
	Placement PlacementPolicy
	// Threads overrides the testbed's simulated thread count (0 keeps
	// the preset).
	Threads int
	// Analyzer overrides the analyzer configuration; the zero value
	// means core.DefaultConfig(). Sweeping Analyzer.Epsilon reproduces
	// Figures 9 and 10.
	Analyzer core.Config
	// Mechanism selects the migration engine; default MigrateATMem.
	Mechanism MigrationMechanism
	// SamplePeriod fixes the profiler period; 0 enables the automatic
	// adjustment of §5.1.
	SamplePeriod uint64
	// SampleOverheadNS is the per-sample capture cost the profiler
	// charges. It is always the pebs default; New overwrites any other
	// value, and Runtime.Options reports it.
	SampleOverheadNS float64
	// CapacityReserve holds back this many bytes of fast memory from
	// the placement budget (staging headroom and "other tenants" in
	// the shared-server scenario of §1). Default: one staging buffer.
	// When the reserve consumes the entire remaining fast-tier
	// capacity, Optimize does not run the analyzer or the migration
	// engine at all: it returns an empty plan/report (SelectedBytes
	// and BytesMoved zero) rather than an error — a fully-reserved
	// tier is an operating condition, not a failure.
	CapacityReserve uint64
	// FaultSchedule, when non-nil, arms deterministic fault injection
	// at the simulator's capacity-mutating operations (allocation,
	// staging reservation, remap, huge-page splinter). Injected faults
	// exercise the transactional migration path: Optimize degrades
	// through rollback, staging-shrink retries, and region skips
	// instead of failing. Inspect what fired via Runtime.FaultEvents.
	FaultSchedule *faultinject.Schedule
	// Recorder, when non-nil, attaches a telemetry recorder to the
	// runtime: every phase, profiling window, analyzer stage, migration
	// region, and injected fault is recorded as a dual-clock event
	// (simulated + host), exportable as a Perfetto-loadable Chrome
	// trace, a CSV timeline, or a chunk-heat dump (see
	// Runtime.WriteTrace). A nil Recorder disables telemetry at the
	// cost of one pointer test per lifecycle point; the simulated-
	// access hot path is never instrumented.
	Recorder *telemetry.Recorder
	// Governor enables the epoch-adaptive placement governor:
	// hysteresis demotion, pressure-driven demotion between watermarks,
	// and a migration circuit breaker. Every Optimize migrates only the
	// difference between the fresh plan and what the page table already
	// holds on the fast tier; with Governor.Enabled that difference also
	// demotes cold-for-N-epochs ranges (scheduled first, so reclaimed
	// capacity funds the promotions), and Runtime.RunEpoch drives the
	// repeated profile→run→optimize loop.
	Governor GovernorOptions
	// BandwidthAware enables the aggregate-bandwidth placement
	// enhancement the paper sketches as future work (§9): on systems
	// whose tiers have independent memory channels (KNL), deliberately
	// leaving the coldest fraction of the selection on the large
	// memory lets both channels serve traffic concurrently. The
	// fraction left behind is slowBW/(slowBW+fastBW) of the selected
	// bytes. Ignored on shared-channel systems (Optane), where
	// splitting traffic only serializes it.
	BandwidthAware bool
	// PlanCache, when non-nil, enables compiled-plan record/replay on a
	// governed runtime (see Runtime.ArmPlan): a first governed run
	// records its per-epoch placement decisions into a static migration
	// DAG keyed by the workload signature; subsequent runs with a
	// matching signature replay the cached schedule, skipping profiling
	// and analysis entirely. A shared cache lets many runtimes in one
	// process (e.g. a benchmark suite) reuse each other's plans.
	PlanCache *core.PlanCache
	// Async configures overlapped background placement: RunEpochAsync
	// migrates the previous interval's plan on a service goroutine while
	// the next interval's phases run, the way the paper's service
	// threads overlap the application. Async implies Governor.Enabled
	// (the pipeline is built on the governed delta planner). A quarter
	// of the hidden migration time is still charged to the clock as
	// the copy bandwidth stolen from the kernels (stealFraction).
	Async bool
	// Health configures the tier-health subsystem: a per-granule error
	// scoreboard feeding exponential-backoff distrust and persistent
	// -fault quarantine, and (with Health.Scrub) a CRC-32C scrubber
	// that walks the fast-tier residency between governed epochs,
	// repairs detected corruption from its backup, emergency-demotes
	// the damaged chunk, and retires its pages from the allocatable
	// fast-tier capacity. See health.go.
	Health HealthOptions
	// Metrics, when non-nil, attaches a live metrics registry: per-tier
	// traffic and occupancy, epoch/analyze/migrate latency histograms,
	// governor and health counters, and the per-epoch placement-quality
	// scorecard gauges, all scrapeable concurrently with the run (see
	// metrics.go and internal/metrics). A nil registry disables metrics
	// at the cost of one pointer test per boundary; the simulated-access
	// hot path is never instrumented. Construct with NewMetricsRegistry.
	Metrics *metrics.Registry
	// DebugAddr, when non-empty, starts the debug HTTP listener on that
	// address (":0" picks a free port; read it back via
	// Runtime.DebugAddr): /metrics serves Prometheus text, /epochz the
	// latest scorecard as JSON, /healthz a liveness probe, and
	// /debug/pprof/ the usual profiles. Implies Metrics (a registry is
	// created if none was given). Call Runtime.Close to stop it.
	DebugAddr string
	// Tenant, when non-nil, attaches the runtime to a multi-tenant
	// broker (see NewBroker): the runtime allocates from the broker's
	// shared memory system instead of building its own, its governed
	// placement budget is capped by the broker-granted share (minus its
	// own quarantine debit), its migrations and health passes serialize
	// against co-tenants through the broker's placement lock, and each
	// epoch reports a scorecard signal back to the broker's arbiter.
	// Implies Governor.Enabled. A FaultSchedule installed by a tenant
	// runtime hooks the shared system (last writer wins) — aim faults
	// with range scopes so only the intended tenant's ranges fire.
	Tenant *Tenant
}

// HealthOptions configures the tier-health subsystem (see
// Options.Health).
type HealthOptions struct {
	// Enabled turns the error scoreboard and self-healing placement on.
	Enabled bool
	// Scrub additionally enables the between-epoch CRC scrubber;
	// implies Enabled.
	Scrub bool
	// Policy tunes granularity, windows, backoff, and scrub bandwidth;
	// zero fields take the health package defaults.
	Policy health.Policy
}

// GovernorOptions configures the epoch-adaptive placement governor
// (see internal/governor for the mechanism and defaults). Zero fields
// take the governor defaults.
type GovernorOptions struct {
	// Enabled turns the governor on.
	Enabled bool
	// HighWatermark is the fast-tier occupancy fraction (of capacity
	// minus CapacityReserve) above which pressure demotion engages.
	// Default 0.90.
	HighWatermark float64
	// LowWatermark is the fraction pressure demotion drains down to
	// before admitting new promotions. Default 0.75.
	LowWatermark float64
	// DemoteAfterEpochs is the hysteresis window: a fast-resident chunk
	// must stay outside the plan's selection for this many consecutive
	// epochs before it is demoted. Default 2.
	DemoteAfterEpochs int
	// BreakerThreshold is how many consecutive degraded epochs (skipped
	// regions or migration failures) open the circuit breaker. Default 2.
	BreakerThreshold int
	// BreakerCooldown is the initial number of epochs an open breaker
	// skips migration for; each failed half-open probe doubles it, and a
	// successful probe resets it. Default 2.
	BreakerCooldown int
	// MaxCooldown caps the exponential backoff. Default 32.
	MaxCooldown int
}

// governorConfig maps the options onto the governor package's config,
// applying its defaults.
func (g GovernorOptions) governorConfig() governor.Config {
	return governor.Config{
		HighWatermark:     g.HighWatermark,
		LowWatermark:      g.LowWatermark,
		DemoteAfterEpochs: g.DemoteAfterEpochs,
		BreakerThreshold:  g.BreakerThreshold,
		BreakerCooldown:   g.BreakerCooldown,
		MaxCooldown:       g.MaxCooldown,
	}.WithDefaults()
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Analyzer == (core.Config{}) {
		out.Analyzer = core.DefaultConfig()
	}
	out.SampleOverheadNS = pebs.DefaultConfig().SampleOverheadNS
	if out.CapacityReserve == 0 {
		out.CapacityReserve = defaultStagingBytes
	}
	if out.Async {
		out.Governor.Enabled = true
	}
	if out.Tenant != nil {
		// Broker budgets are enforced by the governed placement loop;
		// an ungoverned tenant could not honor its share.
		out.Governor.Enabled = true
	}
	if out.Health.Scrub {
		out.Health.Enabled = true
	}
	if out.DebugAddr != "" && out.Metrics == nil {
		// A debug listener without a registry would serve an empty
		// /metrics; the listener implies live metrics.
		out.Metrics = metrics.New(metricsShards)
	}
	return out
}

const defaultStagingBytes = 2 << 20

// stealFraction is the share of overlapped migration seconds still
// charged to the simulated clock: the bandwidth the background copy
// steals from the concurrent phases (see Options.Async).
const stealFraction = 0.25

// newEngine builds the configured migration engine with its default
// degradation ladder (the zero migrate.RetryPolicy).
func (o *Options) newEngine(threads int) migrate.Engine {
	switch o.Mechanism {
	case MigrateMbind:
		return &migrate.MbindEngine{}
	default:
		return &migrate.ATMemEngine{Threads: threads, StagingBytes: defaultStagingBytes}
	}
}
