package telemetry

import (
	"testing"
)

// scriptedRecorder builds a recorder with deterministic clocks: the host
// clock ticks 1000 ns per event, the sim clock is driven manually.
func scriptedRecorder() (*Recorder, *uint64) {
	var host int64
	r := NewRecorder(WithHostClock(func() int64 {
		host += 1000
		return host
	}))
	sim := new(uint64)
	r.SetSimClock(func() uint64 { return *sim })
	return r, sim
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetSimClock(func() uint64 { return 1 })
	r.Begin("phase", "p", nil)
	r.End("phase", "p", nil)
	r.Instant("fault", "Alloc", Args{"call": 1})
	r.InstantAt(42, "migrate", "region-migrated", nil)
	r.Counter("metric", "m", Args{"v": 1})
	if r.Len() != 0 || r.Events() != nil || r.CountEvents("", "") != 0 {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderOrdering(t *testing.T) {
	r, sim := scriptedRecorder()

	r.Begin("phase", "iter0", nil)
	*sim = 10_000
	r.End("phase", "iter0", Args{"wall_s": 1e-5})
	// Same sim stamp as the End: emission order breaks the tie.
	r.Instant("metric", "snap", nil)
	// An explicit earlier stamp sorts before later-stamped events.
	r.InstantAt(5_000, "kernel", "tick", nil)

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantNames := []string{"iter0", "tick", "iter0", "snap"}
	for i, want := range wantNames {
		if evs[i].Name != want {
			t.Fatalf("event %d = %q, want %q", i, evs[i].Name, want)
		}
	}
	if evs[0].SimNS != 0 || evs[1].SimNS != 5_000 || evs[2].SimNS != 10_000 {
		t.Fatalf("sim stamps wrong: %d %d %d", evs[0].SimNS, evs[1].SimNS, evs[2].SimNS)
	}
	if evs[0].HostNS == 0 || evs[0].HostNS >= evs[2].HostNS {
		t.Fatalf("host stamps not increasing: %d vs %d", evs[0].HostNS, evs[2].HostNS)
	}
	if got := r.CountEvents("phase", ""); got != 2 {
		t.Fatalf("CountEvents(phase) = %d, want 2", got)
	}
	if got := r.CountEvents("", "snap"); got != 1 {
		t.Fatalf("CountEvents(snap) = %d, want 1", got)
	}
}

func TestSpanNestingSurvivesSort(t *testing.T) {
	r, sim := scriptedRecorder()
	r.Begin("optimize", "optimize", nil)
	r.Begin("analyze", "rank", nil)
	r.End("analyze", "rank", nil)
	r.Begin("analyze", "promote", nil)
	r.End("analyze", "promote", nil)
	*sim = 1_000
	r.End("optimize", "optimize", nil)

	// B/E pairs must nest LIFO per track after the merge sort.
	depth := 0
	for _, e := range r.Events() {
		switch e.Ph {
		case PhaseBegin:
			depth++
		case PhaseEnd:
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced End at %s/%s", e.Cat, e.Name)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unclosed spans: depth %d", depth)
	}
}

// BenchmarkDisabledRecorder measures the cost of telemetry calls on a
// nil recorder — the price every lifecycle point pays when telemetry is
// off. CI guards this next to the accessor benchmark; it must stay at a
// few nanoseconds per call.
func BenchmarkDisabledRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Begin("phase", "p", nil)
		r.Instant("migrate", "region-migrated", nil)
		r.End("phase", "p", nil)
	}
}

// BenchmarkEnabledInstant sizes the hot cost of one recorded event.
func BenchmarkEnabledInstant(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Instant("migrate", "region-migrated", nil)
	}
}
