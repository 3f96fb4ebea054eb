// Package metrics is the runtime's live, queryable metrics layer: a
// zero-dependency registry of counters, gauges, and log-linear
// histograms that stays allocation-free on the record path and can be
// scraped concurrently with recording (the debug HTTP listener's
// /metrics endpoint reads it from another goroutine mid-run).
//
// Every instrument is a set of atomics: the runtime records from its
// control goroutine, and reads are atomic loads, which is why a scrape
// is safe at any time without stopping the writer.
//
// A nil *Registry is the disabled registry: instrument constructors
// return nil instruments, and every record method on a nil instrument
// returns immediately — one predictable branch per record site, the
// same contract as the nil telemetry recorder (benchmark-guarded at
// ≤ a few ns in CI, see BenchmarkDisabledMetrics).
//
// Snapshots (snapshot.go) read every series at one point in time and
// support delta diffing between two snapshots; the Prometheus text
// exposition writer (prometheus.go) renders the registry with stable
// ordering and escaping.
package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an instrument's fixed label set, bound at registration.
// Each distinct (name, labels) pair is its own series.
type Labels map[string]string

// seriesType discriminates the instrument kinds of a family.
type seriesType int

const (
	typeCounter seriesType = iota
	typeGauge
	typeHistogram
)

func (t seriesType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically-increasing counter. Add and Value are
// atomic, so any goroutine may read while the runtime records; a nil
// Counter is the disabled counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by v.
func (c *Counter) Add(v uint64) {
	if c == nil {
		return
	}
	c.n.Add(v)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value loads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value-wins float64 instrument. Set and Value are
// atomic; a nil Gauge is the disabled gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetUint stores an integral value (exact up to 2^53).
func (g *Gauge) SetUint(v uint64) { g.Set(float64(v)) }

// Value loads the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one registered (name, labels) pair.
type series struct {
	labels   Labels
	labelKey string // canonical sorted `k="v",...` form, "" when unlabeled
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// family groups every series of one metric name under one HELP/TYPE.
type family struct {
	name   string
	help   string
	typ    seriesType
	series map[string]*series
}

// Registry holds the instrument families. Registration takes the
// registry lock (construction-time, not hot path); recording touches
// only the instrument's own atomics. A nil *Registry disables
// everything.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// labelKey renders labels in canonical sorted form.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// SeriesID is the canonical `name{labels}` identity of a series — the
// key Snapshot maps use.
func SeriesID(name string, labels Labels) string {
	lk := labelKey(labels)
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

// register resolves or creates the series for (name, labels). A name
// re-registered under a different type returns nil (a detached series
// would hide the bug; a nil instrument is at least inert and the
// conflict shows up as a missing metric).
func (r *Registry) register(name, help string, typ seriesType, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		return nil
	}
	lk := labelKey(labels)
	s, ok := f.series[lk]
	if !ok {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp, labelKey: lk}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = newHistogram()
		}
		f.series[lk] = s
	}
	return s
}

// Counter registers (or resolves) a counter series. Nil registry or a
// type conflict yields a nil (disabled) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	if s := r.register(name, help, typeCounter, labels); s != nil {
		return s.c
	}
	return nil
}

// Gauge registers (or resolves) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	if s := r.register(name, help, typeGauge, labels); s != nil {
		return s.g
	}
	return nil
}

// Histogram registers (or resolves) a log-linear histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if s := r.register(name, help, typeHistogram, labels); s != nil {
		return s.h
	}
	return nil
}

// sortedFamilies returns the families ordered by name, each with its
// series ordered by label key — the stable iteration order the
// exposition writer and snapshots share.
func (r *Registry) sortedFamilies() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns one family's series ordered by label key.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labelKey < out[j].labelKey })
	return out
}
