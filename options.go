package atmem

// This file is the functional-options construction API: New is the
// runtime's constructor, and each Option mutates one field group of the
// Options struct it builds.

import (
	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/metrics"
	"atmem/internal/telemetry"
)

// Option configures a Runtime under construction (see New).
type Option func(*Options)

// New builds a runtime on the given testbed:
//
//	rt, err := atmem.New(atmem.NVMDRAM(),
//		atmem.WithThreads(16),
//		atmem.WithTelemetry(rec),
//		atmem.WithGovernor(atmem.GovernorOptions{DemoteAfterEpochs: 3}),
//	)
//
// Options apply in order; later options override earlier ones. The
// placement policy defaults to PaperPolicy.
func New(tb Testbed, opts ...Option) (*Runtime, error) {
	o := Options{Placement: PaperPolicy()}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return newRuntime(tb, o)
}

// WithPlacementPolicy installs the placement policy (see
// PlacementPolicy): one of the built-ins — PaperPolicy, AllFastPolicy,
// PreferFastPolicy, OraclePolicy, LearnedPolicy, StaticPolicy — or a
// caller-defined implementation. The policy is validated at
// construction, and an explicit nil fails New with ErrNilPolicy.
func WithPlacementPolicy(p PlacementPolicy) Option {
	return func(o *Options) { o.Placement = p }
}

// WithThreads overrides the testbed's simulated thread count.
func WithThreads(n int) Option {
	return func(o *Options) { o.Threads = n }
}

// WithEngine selects the migration mechanism Optimize uses (default
// MigrateATMem).
func WithEngine(m MigrationMechanism) Option {
	return func(o *Options) { o.Mechanism = m }
}

// WithAnalyzer overrides the two-stage analyzer configuration.
func WithAnalyzer(cfg core.Config) Option {
	return func(o *Options) { o.Analyzer = cfg }
}

// WithSamplePeriod fixes the profiler period (0 keeps the automatic
// adjustment of §5.1).
func WithSamplePeriod(period uint64) Option {
	return func(o *Options) { o.SamplePeriod = period }
}

// WithCapacityReserve holds back bytes of fast memory from the placement
// budget (see Options.CapacityReserve).
func WithCapacityReserve(bytes uint64) Option {
	return func(o *Options) { o.CapacityReserve = bytes }
}

// WithFaultSchedule arms deterministic fault injection at the
// simulator's capacity-mutating operations (see Options.FaultSchedule).
func WithFaultSchedule(s faultinject.Schedule) Option {
	return func(o *Options) { o.FaultSchedule = &s }
}

// WithTelemetry attaches a telemetry recorder (see Options.Recorder).
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(o *Options) { o.Recorder = rec }
}

// WithGovernor configures the epoch-adaptive placement governor every
// runtime runs (see Options.Governor).
func WithGovernor(g GovernorOptions) Option {
	return func(o *Options) { o.Governor = g }
}

// WithBandwidthAware toggles the aggregate-bandwidth placement
// enhancement (see Options.BandwidthAware).
func WithBandwidthAware(on bool) Option {
	return func(o *Options) { o.BandwidthAware = on }
}

// WithPlanCache attaches a compiled-plan cache, enabling record/replay
// of governed placement schedules (see Options.PlanCache and
// Runtime.ArmPlan). Pass the same cache to every runtime that should
// share recorded plans.
func WithPlanCache(pc *PlanCache) Option {
	return func(o *Options) { o.PlanCache = pc }
}

// WithHealthPolicy enables the tier-health scoreboard under the given
// policy (see Options.Health): promotion failures and CRC detections
// feed per-granule error windows, granules in backoff are excluded from
// promotion, and granules crossing the persistence threshold are
// evacuated and retired into the quarantine ledger. Zero policy fields
// take the health package defaults.
func WithHealthPolicy(p health.Policy) Option {
	return func(o *Options) {
		o.Health.Enabled = true
		o.Health.Policy = p
	}
}

// WithScrubber enables the between-epoch CRC-32C scrubber on top of the
// health scoreboard (see Options.Health.Scrub): fast-resident chunks
// are checksummed after each governed epoch's migration and verified
// before the next epoch's kernels run; a mismatch is repaired from the
// scrubber's backup, the chunk emergency-demoted, and its pages
// retired.
func WithScrubber() Option {
	return func(o *Options) {
		o.Health.Enabled = true
		o.Health.Scrub = true
	}
}

// WithMetrics attaches a live metrics registry (see Options.Metrics).
// Construct one with NewMetricsRegistry, or share a registry across
// runtimes to aggregate their series.
func WithMetrics(m *metrics.Registry) Option {
	return func(o *Options) { o.Metrics = m }
}

// WithDebugAddr starts the debug HTTP listener on addr (see
// Options.DebugAddr): /metrics, /epochz, /healthz, and /debug/pprof/.
// ":0" picks a free port, readable back via Runtime.DebugAddr. Implies
// metrics; stop it with Runtime.Close.
func WithDebugAddr(addr string) Option {
	return func(o *Options) { o.DebugAddr = addr }
}

// WithTenant attaches the runtime to a multi-tenant broker as the
// given admitted tenant (see NewBroker and Options.Tenant): the
// runtime shares the broker's memory system, honors its granted
// fast-tier share as the placement budget of its online and replayed
// epochs, and reports per-epoch signals to the broker's arbiter.
func WithTenant(t *Tenant) Option {
	return func(o *Options) { o.Tenant = t }
}
