// Package telemetry is the runtime's low-overhead event/span recorder:
// the observability layer of the profile→analyze→migrate decision loop.
//
// Every event is stamped on two clocks at once:
//
//   - the simulated clock — memsim cycles converted to seconds and
//     accumulated by the runtime across phases and migrations, the
//     timeline the paper's figures live on;
//   - the host clock — wall nanoseconds since the recorder was created,
//     which exposes the cost of the un-simulated control plane (the
//     analyzer stages run in host time only).
//
// Events append to one buffer, the runtime's control-plane track
// (phases, profiling windows, analyzer stages, migration, faults), with
// no locks on the emission path: the runtime emits from one goroutine. A
// nil *Recorder is the disabled recorder: every method is nil-safe and
// returns immediately, so wiring telemetry through a layer costs one
// pointer test when it is off.
//
// Exporters (see export.go) render the merged event stream as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing), as a CSV
// timeline, and as a human-readable text or markdown timeline
// (timeline.go).
package telemetry

import (
	"sort"
	"sync/atomic"
	"time"
)

// Chrome trace-event phase codes used by the recorder (the "ph" field of
// the trace-event format).
const (
	// PhaseBegin opens a span.
	PhaseBegin = 'B'
	// PhaseEnd closes the innermost open span.
	PhaseEnd = 'E'
	// PhaseInstant is a zero-duration point event.
	PhaseInstant = 'i'
	// PhaseCounter carries named numeric values sampled at a point in
	// time (rendered as counter tracks by Perfetto).
	PhaseCounter = 'C'
)

// Args carries an event's key/value payload. Exporters emit keys in
// sorted order, so equal Args always serialize identically. Values
// should be strings, bools, or numeric types.
type Args map[string]any

// Event is one recorded telemetry event.
type Event struct {
	// Seq is the emission order (monotonic).
	Seq uint64
	// Cat is the event category ("phase", "profile", "analyze",
	// "migrate", "fault", "metric").
	Cat string
	// Name labels the event within its category.
	Name string
	// Ph is the Chrome trace phase code (PhaseBegin et al.).
	Ph byte
	// SimNS is the simulated-clock stamp in nanoseconds.
	SimNS uint64
	// HostNS is the host-clock stamp in nanoseconds since the recorder
	// was created.
	HostNS int64
	// Args is the optional payload.
	Args Args
}

// Recorder collects telemetry events. Create one with NewRecorder and
// hand it to the runtime via Options.Recorder; a nil *Recorder disables
// recording everywhere.
//
// Emission methods are for one writer; Events and the exporters must
// not run concurrently with emission — the runtime's phase structure
// guarantees this.
type Recorder struct {
	start   time.Time
	hostNow func() int64
	simNow  atomic.Pointer[func() uint64]
	seq     uint64
	events  []Event
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithHostClock replaces the host-clock source (nanoseconds since
// recorder start) — used by tests that need deterministic host stamps.
func WithHostClock(now func() int64) Option {
	return func(r *Recorder) { r.hostNow = now }
}

// NewRecorder builds an enabled recorder.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{start: time.Now()}
	r.hostNow = func() int64 { return int64(time.Since(r.start)) }
	for _, o := range opts {
		o(r)
	}
	return r
}

// Enabled reports whether the recorder collects events (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetSimClock installs the simulated-clock source (nanoseconds of
// accumulated simulated time). Without one, events carry SimNS 0. The
// source must be safe for concurrent calls.
func (r *Recorder) SetSimClock(now func() uint64) {
	if r == nil {
		return
	}
	r.simNow.Store(&now)
}

// sim returns the current simulated-clock stamp.
func (r *Recorder) sim() uint64 {
	if f := r.simNow.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// emit appends one event.
func (r *Recorder) emit(ph byte, cat, name string, simNS uint64, args Args) {
	r.seq++
	r.events = append(r.events, Event{
		Seq:    r.seq,
		Cat:    cat,
		Name:   name,
		Ph:     ph,
		SimNS:  simNS,
		HostNS: r.hostNow(),
		Args:   args,
	})
}

// Begin opens a span at the current clocks.
func (r *Recorder) Begin(cat, name string, args Args) {
	if r == nil {
		return
	}
	r.emit(PhaseBegin, cat, name, r.sim(), args)
}

// End closes the innermost open span.
func (r *Recorder) End(cat, name string, args Args) {
	if r == nil {
		return
	}
	r.emit(PhaseEnd, cat, name, r.sim(), args)
}

// Instant records a point event at the current clocks.
func (r *Recorder) Instant(cat, name string, args Args) {
	if r == nil {
		return
	}
	r.emit(PhaseInstant, cat, name, r.sim(), args)
}

// InstantAt records a point event at an explicit simulated-clock stamp —
// used by the migration adapter, whose engine models its own elapsed
// seconds within the Optimize span.
func (r *Recorder) InstantAt(simNS uint64, cat, name string, args Args) {
	if r == nil {
		return
	}
	r.emit(PhaseInstant, cat, name, simNS, args)
}

// Counter records named numeric values sampled at the current clocks.
func (r *Recorder) Counter(cat, name string, values Args) {
	if r == nil {
		return
	}
	r.emit(PhaseCounter, cat, name, r.sim(), values)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns every event ordered by (SimNS, Seq): emission order
// breaks simulated-clock ties, so span nesting is preserved. The
// returned slice is a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].SimNS < out[j].SimNS })
	return out
}

// CountEvents returns how many events match the category and name
// (empty strings match everything) — the helper the trace-vs-report
// reconciliation tests use.
func (r *Recorder) CountEvents(cat, name string) int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.events {
		if (cat == "" || r.events[i].Cat == cat) && (name == "" || r.events[i].Name == name) {
			n++
		}
	}
	return n
}
