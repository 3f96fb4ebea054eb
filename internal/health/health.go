// Package health implements the tier-health model: a per-granule error
// scoreboard that classifies failures as transient or persistent, an
// exponential-backoff trust machine that decides when a granule of fast
// memory may be used again, and a CRC-32C scrubber (scrub.go) that
// detects silent corruption in fast-resident data between epochs.
//
// The scoreboard consumes two signals: migration outcomes (a promotion
// that the transactional engine had to skip is a failure of the target
// fast-tier range) and scrubber detections (a CRC mismatch is always a
// hard failure). Failures are counted in a sliding window per granule;
// a granule whose window crosses the persistence threshold is condemned
// — the runtime demotes whatever still lives there and retires the
// pages into the memsim quarantine ledger. Below the threshold the
// granule is merely distrusted for a backoff period that doubles on
// every repeated failure, modelling the "retry later, but back off"
// treatment real systems give correctable-error storms.
package health

import (
	"fmt"
	"sync"
)

// Policy configures the health model. The zero value takes defaults via
// WithDefaults.
type Policy struct {
	// GranuleBytes is the tracking granularity of the scoreboard; error
	// accounting, trust decisions, and condemnation all happen per
	// granule. Default 2 MiB (one huge page).
	GranuleBytes uint64
	// Window is how many recent observations per granule the error-rate
	// window holds. Default 8.
	Window int
	// PersistentThreshold is how many failures within the window
	// condemn a granule as persistently bad. Default 3.
	PersistentThreshold int
	// BackoffEpochs is the initial distrust period after a failure, in
	// epochs; each further failure doubles it. Default 2.
	BackoffEpochs int
	// MaxBackoff caps the doubling. Default 16.
	MaxBackoff int
	// ScrubGBs is the modelled scrub read bandwidth in GB/s, used to
	// charge scrub passes to the simulated clock. Default 10.
	ScrubGBs float64
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (p Policy) WithDefaults() Policy {
	if p.GranuleBytes == 0 {
		p.GranuleBytes = 2 << 20
	}
	if p.Window == 0 {
		p.Window = 8
	}
	if p.PersistentThreshold == 0 {
		p.PersistentThreshold = 3
	}
	if p.BackoffEpochs == 0 {
		p.BackoffEpochs = 2
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 16
	}
	if p.ScrubGBs == 0 {
		p.ScrubGBs = 10
	}
	return p
}

// Validate rejects configurations that can never work.
func (p Policy) Validate() error {
	q := p.WithDefaults()
	if q.GranuleBytes&(q.GranuleBytes-1) != 0 {
		return fmt.Errorf("health: GranuleBytes %d is not a power of two", q.GranuleBytes)
	}
	if q.PersistentThreshold > q.Window {
		return fmt.Errorf("health: PersistentThreshold %d exceeds Window %d (can never condemn)",
			q.PersistentThreshold, q.Window)
	}
	if q.MaxBackoff < q.BackoffEpochs {
		return fmt.Errorf("health: MaxBackoff %d below BackoffEpochs %d", q.MaxBackoff, q.BackoffEpochs)
	}
	if q.ScrubGBs < 0 {
		return fmt.Errorf("health: negative ScrubGBs %g", q.ScrubGBs)
	}
	return nil
}

// Fingerprint serializes every knob that shapes health decisions, for
// inclusion in the compiled-plan signature: a plan recorded under one
// health policy must not replay under another.
func (p Policy) Fingerprint() string {
	q := p.WithDefaults()
	return fmt.Sprintf("granule=%d window=%d threshold=%d backoff=%d/%d scrub=%g",
		q.GranuleBytes, q.Window, q.PersistentThreshold, q.BackoffEpochs, q.MaxBackoff, q.ScrubGBs)
}

// Range is one contiguous byte range, granule-aligned when produced by
// the scoreboard.
type Range struct {
	Base uint64
	Size uint64
}

// GranuleState classifies one granule's trust level.
type GranuleState int

const (
	// StateTrusted: the granule may hold fast-tier data.
	StateTrusted GranuleState = iota
	// StateSuspect: recent failures put the granule in backoff; it is
	// distrusted until the backoff expires, then re-trusted on the next
	// successful use.
	StateSuspect
	// StateCondemned: the failure window crossed the persistence
	// threshold; the granule must be evacuated and retired.
	StateCondemned
)

func (s GranuleState) String() string {
	switch s {
	case StateTrusted:
		return "trusted"
	case StateSuspect:
		return "suspect"
	case StateCondemned:
		return "condemned"
	}
	return fmt.Sprintf("GranuleState(%d)", int(s))
}

// Transition records one granule state change, for telemetry.
type Transition struct {
	Epoch int
	Base  uint64
	Size  uint64
	From  GranuleState
	To    GranuleState
	// Reason is a short cause label ("crc", "migration", "backoff-expired").
	Reason string
	// Backoff is the distrust period entered (suspect transitions only).
	Backoff int
}

// Stats summarizes the scoreboard.
type Stats struct {
	// Tracked is how many granules have any observation history.
	Tracked int
	// Suspect is how many granules are currently in backoff.
	Suspect int
	// Condemned is how many granules have been condemned so far.
	Condemned int
	// Failures and Successes count all observations.
	Failures  int
	Successes int
}

// granule is the per-granule scoreboard entry.
type granule struct {
	window   []bool // ring of recent outcomes; true = failure
	wpos     int
	wlen     int
	state    GranuleState
	distrust int // epoch until which the granule is distrusted (exclusive)
	backoff  int // next backoff period
}

func (g *granule) failuresInWindow() int {
	n := 0
	for i := 0; i < g.wlen; i++ {
		if g.window[i] {
			n++
		}
	}
	return n
}

func (g *granule) observe(fail bool) {
	if g.wlen < len(g.window) {
		g.wlen++
	}
	g.window[g.wpos] = fail
	g.wpos = (g.wpos + 1) % len(g.window)
}

// Scoreboard tracks per-granule error history and trust. Safe for
// concurrent use.
type Scoreboard struct {
	pol Policy

	mu          sync.Mutex
	epoch       int
	granules    map[uint64]*granule
	condemned   []Range // pending drain
	transitions []Transition
	stats       Stats
}

// NewScoreboard builds a scoreboard under the given policy (defaults
// applied).
func NewScoreboard(pol Policy) *Scoreboard {
	return &Scoreboard{
		pol:      pol.WithDefaults(),
		granules: make(map[uint64]*granule),
	}
}

// Policy returns the effective (defaulted) policy.
func (s *Scoreboard) Policy() Policy { return s.pol }

// BeginEpoch advances the scoreboard's epoch clock — the unit backoff
// periods are measured in — and returns the new epoch.
func (s *Scoreboard) BeginEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

// granulesOf calls fn for the key of every granule covering
// [base, base+size).
func (s *Scoreboard) granulesOf(base, size uint64, fn func(key uint64)) {
	if size == 0 {
		size = 1
	}
	g := s.pol.GranuleBytes
	for key := base &^ (g - 1); key < base+size; key += g {
		fn(key)
	}
}

func (s *Scoreboard) get(key uint64) *granule {
	gr := s.granules[key]
	if gr == nil {
		gr = &granule{window: make([]bool, s.pol.Window), backoff: s.pol.BackoffEpochs}
		s.granules[key] = gr
	}
	return gr
}

// ObserveFailure records a failure against every granule covering the
// range. Reason labels the transition ("crc", "migration").
func (s *Scoreboard) ObserveFailure(base, size uint64, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.granulesOf(base, size, func(key uint64) {
		gr := s.get(key)
		s.stats.Failures++
		if gr.state == StateCondemned {
			return
		}
		gr.observe(true)
		from := gr.state
		if gr.failuresInWindow() >= s.pol.PersistentThreshold {
			gr.state = StateCondemned
			s.stats.Condemned++
			if from == StateSuspect {
				s.stats.Suspect--
			}
			s.condemned = append(s.condemned, Range{Base: key, Size: s.pol.GranuleBytes})
			s.transitions = append(s.transitions, Transition{
				Epoch: s.epoch, Base: key, Size: s.pol.GranuleBytes,
				From: from, To: StateCondemned, Reason: reason,
			})
			return
		}
		gr.distrust = s.epoch + gr.backoff
		backoff := gr.backoff
		gr.backoff *= 2
		if gr.backoff > s.pol.MaxBackoff {
			gr.backoff = s.pol.MaxBackoff
		}
		if from != StateSuspect {
			gr.state = StateSuspect
			s.stats.Suspect++
		}
		s.transitions = append(s.transitions, Transition{
			Epoch: s.epoch, Base: key, Size: s.pol.GranuleBytes,
			From: from, To: StateSuspect, Reason: reason, Backoff: backoff,
		})
	})
}

// ObserveSuccess records a successful use of the range. A suspect
// granule whose backoff has expired is re-trusted and its backoff reset
// — the error burst is judged transient.
func (s *Scoreboard) ObserveSuccess(base, size uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.granulesOf(base, size, func(key uint64) {
		gr := s.granules[key]
		if gr == nil {
			// Never-failed granules are not materialized: the common
			// all-healthy case stays O(1) in memory.
			s.stats.Successes++
			return
		}
		s.stats.Successes++
		if gr.state == StateCondemned {
			return
		}
		gr.observe(false)
		if gr.state == StateSuspect && s.epoch >= gr.distrust {
			gr.state = StateTrusted
			gr.backoff = s.pol.BackoffEpochs
			s.stats.Suspect--
			s.transitions = append(s.transitions, Transition{
				Epoch: s.epoch, Base: key, Size: s.pol.GranuleBytes,
				From: StateSuspect, To: StateTrusted, Reason: "backoff-expired",
			})
		}
	})
}

// Trusted reports whether every granule covering the range may be used
// for fast-tier placement right now: not condemned, and not inside a
// backoff period.
func (s *Scoreboard) Trusted(base, size uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := true
	s.granulesOf(base, size, func(key uint64) {
		gr := s.granules[key]
		if gr == nil {
			return
		}
		if gr.state == StateCondemned || (gr.state == StateSuspect && s.epoch < gr.distrust) {
			ok = false
		}
	})
	return ok
}

// State returns the current state of the granule containing addr.
func (s *Scoreboard) State(addr uint64) GranuleState {
	s.mu.Lock()
	defer s.mu.Unlock()
	gr := s.granules[addr&^(s.pol.GranuleBytes-1)]
	if gr == nil {
		return StateTrusted
	}
	if gr.state == StateSuspect && s.epoch >= gr.distrust {
		// Backoff expired but no success observed yet: still suspect,
		// Trusted() already admits it for the probing use.
		return StateSuspect
	}
	return gr.state
}

// DrainCondemned returns the granule ranges condemned since the last
// drain and clears the pending list. The caller owns the self-healing
// follow-up: evacuate and retire each range.
func (s *Scoreboard) DrainCondemned() []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.condemned
	s.condemned = nil
	return out
}

// Transitions returns every state change so far, in order. The slice
// grows append-only, so callers may keep a cursor into it.
func (s *Scoreboard) Transitions() []Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transitions
}

// Stats returns a snapshot of the scoreboard counters.
func (s *Scoreboard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Tracked = len(s.granules)
	return st
}
