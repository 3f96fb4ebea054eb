package cache

import "testing"

// lruOp is one step of a differential stream: an access of key lo, an
// invalidation of [lo, hi), or a flush.
type lruOp struct {
	kind   byte
	lo, hi uint64
}

const (
	opAccess byte = iota
	opInvalidate
	opFlush
)

// runLRU4Diff drives ops through an LRU4 and a stamp-based 4-way Cache
// of the same geometry, the way the accessor's L1 probe uses them: an
// access, then on a miss the predecessor probe (key != 0 && Contains(key-1)).
// It requires identical hit and predecessor answers, and identical
// residency of every key in [0, universe], after every step.
func runLRU4Diff(tb testing.TB, sets int, universe uint64, ops []lruOp) {
	tb.Helper()
	l := NewLRU4(sets * 4)
	c := New(sets*4*64, 64, 4)
	if len(l.sets) != sets || int(c.setMask)+1 != sets {
		tb.Fatalf("geometry: LRU4 %d sets, Cache %d sets, want %d", len(l.sets), c.setMask+1, sets)
	}
	for i, op := range ops {
		switch op.kind {
		case opAccess:
			key := op.lo
			lh, ch := l.Access(key), c.Access(key)
			if lh != ch {
				tb.Fatalf("op %d: access %d: LRU4 hit=%v, Cache hit=%v", i, key, lh, ch)
			}
			if !lh {
				lp := key != 0 && l.Contains(key-1)
				cp := key != 0 && c.Contains(key-1)
				if lp != cp {
					tb.Fatalf("op %d: predecessor of %d: LRU4 %v, Cache %v", i, key, lp, cp)
				}
			}
		case opInvalidate:
			l.InvalidateRange(op.lo, op.hi)
			c.InvalidateRange(op.lo, op.hi)
		case opFlush:
			l.Flush()
			c.Flush()
		}
		for key := uint64(0); key <= universe; key++ {
			if l.Contains(key) != c.Contains(key) {
				tb.Fatalf("op %d (%+v): key %d: LRU4 resident=%v, Cache resident=%v",
					i, op, key, l.Contains(key), c.Contains(key))
			}
		}
	}
}

// lruStream is a seeded op stream over keys [0, universe): mostly
// accesses, with an invalidation window (narrow or wide) about every
// 50 steps and a flush about every 1000.
func lruStream(seed, universe uint64, n int) []lruOp {
	x := seed
	next := func() uint64 { // SplitMix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	ops := make([]lruOp, n)
	for i := range ops {
		switch r := next() % 1000; {
		case r == 0:
			ops[i] = lruOp{kind: opFlush}
		case r < 20:
			lo := next() % universe
			ops[i] = lruOp{kind: opInvalidate, lo: lo, hi: lo + next()%(universe/2+1)}
		default:
			key := next() % universe
			if next()%4 == 0 && i > 0 && ops[i-1].kind == opAccess {
				key = ops[i-1].lo + 1 // extend a forward run
			}
			ops[i] = lruOp{kind: opAccess, lo: key}
		}
	}
	return ops
}

func TestLRU4MatchesCache(t *testing.T) {
	for _, sets := range []int{1, 32} {
		for _, mix := range []struct {
			name     string
			universe uint64 // keys drawn from [0, universe)
		}{
			{"hit-heavy", uint64(sets) * 3},
			{"mixed", uint64(sets) * 8},
			{"miss-heavy", uint64(sets) * 64},
		} {
			for seed := uint64(1); seed <= 3; seed++ {
				runLRU4Diff(t, sets, mix.universe+1, lruStream(seed, mix.universe, 3000))
			}
		}
	}
}

// FuzzLRU4MatchesCache decodes data into an op stream: the first byte
// picks the geometry (1 or 32 sets) and key universe, then each byte
// pair is an access, an invalidation window, or a flush.
func FuzzLRU4MatchesCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 1, 2, 7})
	f.Add([]byte{1, 0, 9, 0, 10, 0, 11, 0x40, 3, 0, 9, 0, 12})
	f.Add([]byte{5, 7, 7, 0x80, 0, 0x7f, 0x44, 1, 200, 2, 201})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sets := 1
		if data[0]&1 != 0 {
			sets = 32
		}
		universe := uint64(sets) * []uint64{3, 8, 64}[int(data[0]>>1)%3]
		var ops []lruOp
		for i := 1; i+1 < len(data); i += 2 {
			a, b := uint64(data[i]), uint64(data[i+1])
			switch {
			case a == 0x7f:
				ops = append(ops, lruOp{kind: opFlush})
			case a >= 0x80:
				lo := b % universe
				ops = append(ops, lruOp{kind: opInvalidate, lo: lo, hi: lo + (a-0x80)%(universe+1)})
			default:
				ops = append(ops, lruOp{kind: opAccess, lo: (a<<8 | b) % universe})
			}
		}
		runLRU4Diff(t, sets, universe, ops)
	})
}

func TestLRU4Geometry(t *testing.T) {
	for _, c := range []struct{ entries, sets int }{
		{0, 1}, {4, 1}, {7, 1}, {8, 2}, {48, 8}, {64, 16}, {128, 32},
	} {
		if got := len(NewLRU4(c.entries).sets); got != c.sets {
			t.Errorf("NewLRU4(%d): %d sets, want %d", c.entries, got, c.sets)
		}
	}
}

func TestLRU4RecencyOrder(t *testing.T) {
	l := NewLRU4(4) // one set
	for _, key := range []uint64{1, 2, 3, 4, 2, 5} {
		l.Access(key)
	}
	// 2 was refreshed, so 1 was the LRU way when 5 missed.
	if want := (set4{6, 3, 5, 4}); l.sets[0] != want {
		t.Errorf("set = %v, want %v", l.sets[0], want)
	}
	l.InvalidateRange(3, 4)
	if want := (set4{6, 3, 5, 0}); l.sets[0] != want {
		t.Errorf("after invalidating key 3: set = %v, want %v", l.sets[0], want)
	}
	if l.Access(9) || l.sets[0] != (set4{10, 6, 3, 5}) {
		t.Errorf("miss did not fill the emptied way: set = %v", l.sets[0])
	}
}

// The benchmarks drive precomputed key streams through the L1 probe the
// accessor runs (Access, then the predecessor probe on a miss) at the
// accessor's L1 geometry, and through the LLC's streaming-hint access.

const benchKeys = 1 << 12

func benchStream(universe uint64) []uint64 {
	keys := make([]uint64, benchKeys)
	x := uint64(42)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x%universe + 1
	}
	return keys
}

var benchMixes = []struct {
	name     string
	universe uint64
}{
	{"hit-heavy", 96}, // 3/4 of the 128-entry L1
	{"mixed", 512},    // 4x the L1
	{"miss-heavy", 1 << 20},
}

var benchSink bool

func BenchmarkL1Probe(b *testing.B) {
	for _, mix := range benchMixes {
		keys := benchStream(mix.universe)
		b.Run("lru4/"+mix.name, func(b *testing.B) {
			l := NewLRU4(8 << 10 / 64)
			var seq bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i&(benchKeys-1)]
				if !l.Access(key) {
					seq = seq != l.Contains(key-1)
				}
			}
			benchSink = seq
		})
		b.Run("stamp/"+mix.name, func(b *testing.B) {
			c := New(8<<10, 64, 4)
			var seq bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i&(benchKeys-1)]
				if !c.Access(key) {
					seq = seq != c.Contains(key-1)
				}
			}
			benchSink = seq
		})
	}
}

// BenchmarkLLCAccessHint is the LLC's load path at the default testbed
// geometry (512 KiB, 8-way), every fourth access a streaming insert.
func BenchmarkLLCAccessHint(b *testing.B) {
	for _, mix := range []struct {
		name     string
		universe uint64
	}{
		{"hit-heavy", 6 << 10}, // 3/4 of the 8192-line LLC
		{"mixed", 32 << 10},
		{"miss-heavy", 1 << 24},
	} {
		keys := benchStream(mix.universe)
		b.Run(mix.name, func(b *testing.B) {
			c := New(512<<10, 64, 8)
			var hit bool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit = hit != c.AccessHint(keys[i&(benchKeys-1)], i&3 == 0)
			}
			benchSink = hit
		})
	}
}
