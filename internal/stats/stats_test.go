package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{25, 2},
		{50, 3},
		{75, 4},
		{100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
	if got := Percentile(xs, 90); math.Abs(got-9) > 1e-12 {
		t.Errorf("Percentile(90) = %v, want 9", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single element: got %v", got)
	}
	// Out-of-range p is clamped.
	if got := Percentile([]float64{1, 2}, -10); got != 1 {
		t.Errorf("clamped low: got %v", got)
	}
	if got := Percentile([]float64{1, 2}, 200); got != 2 {
		t.Errorf("clamped high: got %v", got)
	}
}

// Property: a percentile always lies within [min, max] of the sample.
func TestPercentileWithinBounds(t *testing.T) {
	check := func(raw []float64, p float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		got := Percentile(xs, p)
		return got >= slices.Min(xs)-1e-9 && got <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoMeansSplitSeparatesClusters(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 1.05, 10, 10.2, 9.8}
	split := TwoMeansSplit(xs)
	if split <= 1.1 || split >= 9.8 {
		t.Errorf("split %v not between clusters", split)
	}
}

func TestTwoMeansSplitUniform(t *testing.T) {
	if got := TwoMeansSplit([]float64{5, 5, 5}); got != 5 {
		t.Errorf("uniform input: got %v, want 5", got)
	}
	if !math.IsNaN(TwoMeansSplit(nil)) {
		t.Error("empty input should give NaN")
	}
}

// Property: the split lies within the data range.
func TestTwoMeansSplitWithinRange(t *testing.T) {
	check := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		split := TwoMeansSplit(xs)
		return split >= slices.Min(xs)-1e-9 && split <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
