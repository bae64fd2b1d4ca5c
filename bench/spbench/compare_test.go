package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"same runs", scaled(1), false, verdictUnchanged},
		{"within bound", scaled(1.05), false, verdictUnchanged},
		{"beyond bound", scaled(1.2), false, verdictWorse},
		{"faster everywhere", scaled(0.8), false, verdictImproved},
		{"higher is better", scaled(1.2), true, verdictImproved},
		{"noisy", []float64{5, 15, 6, 14, 5, 15, 6, 14, 10, 10}, false, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(base, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(base[:5], scaled(0.8)[:5], false, 0.1); got != verdictUnchanged {
		t.Errorf("five pairs: verdict %s, want %s (too few pairs to claim a gain)", got, verdictUnchanged)
	}
}
