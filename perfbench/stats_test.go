package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	p90, err := percentile(xs, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", p90)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must fail")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Fatalf("p50 of 20 samples leaves 10 beyond it: %v", err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must fail")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("a percentile of no samples must fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// The expected values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3.5, 1.25, 9.0, 4.0, 7.5, 2.0, 6.25}, 2.0, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
