package governor

import "testing"

func TestConfigDefaultsValidate(t *testing.T) {
	c := Config{}.WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Config{
		{HighWatermark: 1.2},
		{HighWatermark: 0.5, LowWatermark: 0.6},
		{DemoteAfterEpochs: -1},
		{BreakerThreshold: -2},
		{BreakerCooldown: 4, MaxCooldown: 2},
	}
	for i, c := range bad {
		c = c.WithDefaults()
		// WithDefaults only fills zero fields, so the bad values survive.
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestDemotionTarget(t *testing.T) {
	const cap = 1000
	cases := []struct {
		name      string
		projected uint64
		want      uint64
	}{
		{"empty", 0, 0},
		{"below high", 900, 0},
		{"at high", 900, 0},
		{"just above high drains to low", 901, 901 - 750},
		{"full drains to low", 1000, 250},
		{"over-committed drains to low", 1400, 650},
	}
	for _, c := range cases {
		if got := DemotionTarget(c.projected, cap, 0.9, 0.75); got != c.want {
			t.Errorf("%s: DemotionTarget(%d) = %d, want %d", c.name, c.projected, got, c.want)
		}
	}
	if got := DemotionTarget(500, 0, 0.9, 0.75); got != 0 {
		t.Errorf("zero capacity: got %d, want 0", got)
	}
}

// epochStep is one scripted breaker epoch: the decision the test expects
// at epoch start, whether the epoch runs a migration (skip epochs do
// not), the outcome it observes, and the state expected afterwards.
type epochStep struct {
	wantDecision Decision
	degraded     bool
	wantState    State
}

func runScript(t *testing.T, b *Breaker, steps []epochStep) {
	t.Helper()
	for i, s := range steps {
		d := b.Decide()
		if d != s.wantDecision {
			t.Fatalf("epoch %d: decision %v, want %v (state %v)", i+1, d, s.wantDecision, b.State())
		}
		if d != DecisionSkip {
			b.Observe(s.degraded)
		}
		if b.State() != s.wantState {
			t.Fatalf("epoch %d: state %v, want %v", i+1, b.State(), s.wantState)
		}
	}
}

func TestBreakerFullCycle(t *testing.T) {
	// Threshold 2, cooldown 2: two degraded epochs open the breaker, two
	// epochs are skipped, the next probes, and a clean probe closes it.
	b := NewBreaker(Config{BreakerThreshold: 2, BreakerCooldown: 2}.WithDefaults())
	runScript(t, b, []epochStep{
		{DecisionRun, false, StateClosed},
		{DecisionRun, true, StateClosed}, // bad = 1
		{DecisionRun, true, StateOpen},   // bad = 2 -> open(cooldown 2)
		{DecisionSkip, false, StateOpen}, // cooldown 2 -> 1
		{DecisionSkip, false, StateOpen}, // cooldown 1 -> 0
		{DecisionProbe, false, StateClosed},
		{DecisionRun, false, StateClosed},
	})
	want := []Transition{
		{Epoch: 3, From: StateClosed, To: StateOpen, Cooldown: 2, Reason: "threshold"},
		{Epoch: 6, From: StateOpen, To: StateHalfOpen, Reason: "cooldown elapsed"},
		{Epoch: 6, From: StateHalfOpen, To: StateClosed, Reason: "probe succeeded"},
	}
	got := b.Transitions()
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBreakerProbeFailureDoublesCooldown(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldown: 1}.WithDefaults())
	runScript(t, b, []epochStep{
		{DecisionRun, true, StateOpen},   // open, cooldown 1
		{DecisionSkip, false, StateOpen}, // wait out the single epoch
		{DecisionProbe, true, StateOpen}, // probe fails -> cooldown 2
		{DecisionSkip, false, StateOpen},
		{DecisionSkip, false, StateOpen},
		{DecisionProbe, true, StateOpen}, // probe fails -> cooldown 4
	})
	if b.Cooldown() != 4 {
		t.Errorf("cooldown after two failed probes = %d, want 4", b.Cooldown())
	}
	// Walk the 4-epoch window out; a clean probe resets the backoff.
	runScript(t, b, []epochStep{
		{DecisionSkip, false, StateOpen},
		{DecisionSkip, false, StateOpen},
		{DecisionSkip, false, StateOpen},
		{DecisionSkip, false, StateOpen},
		{DecisionProbe, false, StateClosed},
	})
	if b.Cooldown() != 1 {
		t.Errorf("cooldown after close = %d, want reset to 1", b.Cooldown())
	}
}

func TestBreakerBackoffCap(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldown: 1, MaxCooldown: 2}.WithDefaults())
	b.Decide()
	b.Observe(true) // open, cooldown 1
	for i := 0; i < 5; i++ {
		// Skip the cooldown window, then fail the probe.
		for b.State() == StateOpen {
			if d := b.Decide(); d == DecisionProbe {
				b.Observe(true)
				break
			}
		}
	}
	if b.Cooldown() != 2 {
		t.Errorf("cooldown = %d, want capped at 2", b.Cooldown())
	}
}

func TestBreakerCleanEpochResetsBadCount(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 2, BreakerCooldown: 1}.WithDefaults())
	runScript(t, b, []epochStep{
		{DecisionRun, true, StateClosed},  // bad = 1
		{DecisionRun, false, StateClosed}, // clean epoch resets
		{DecisionRun, true, StateClosed},  // bad = 1 again, not 2
		{DecisionRun, true, StateOpen},    // now the threshold trips
	})
}

func TestStateAndDecisionStrings(t *testing.T) {
	for _, s := range []State{StateClosed, StateOpen, StateHalfOpen, State(9)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
	for _, d := range []Decision{DecisionRun, DecisionProbe, DecisionSkip, Decision(9)} {
		if d.String() == "" {
			t.Error("empty decision string")
		}
	}
}

func TestPlanShed(t *testing.T) {
	ladder := []ShedStep{{"c", 10}, {"b", 20}, {"a", 30}}
	cases := []struct {
		target uint64
		want   int
	}{
		{0, 0},
		{5, 1},
		{10, 1},
		{11, 2},
		{30, 2},
		{31, 3},
		{60, 3},
		{1000, 3}, // ladder cannot cover: shed everything
	}
	for _, c := range cases {
		if got := PlanShed(ladder, c.target); got != c.want {
			t.Errorf("PlanShed(target=%d) = %d, want %d", c.target, got, c.want)
		}
	}
	if got := PlanShed(nil, 42); got != 0 {
		t.Errorf("PlanShed(empty ladder) = %d, want 0", got)
	}
}
