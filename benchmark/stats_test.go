package main

import (
	"math"
	"testing"

	"semcc/internal/obs"
)

func TestMedianOfSegments(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One disturbed segment in seven does not move the result.
		{[]float64{8140, 8386, 8151, 7915, 8033, 8331, 1000}, 8140},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestPooledPercentiles(t *testing.T) {
	// Two clients with very different sample counts: pooling weighs every
	// root once, where averaging per-client percentiles would not.
	a := make([]int64, 0, 90)
	for i := int64(1); i <= 90; i++ {
		a = append(a, i)
	}
	b := []int64{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009}
	s := pool(b, a)
	if len(s) != 100 || s[0] != 1 || s[99] != 1009 {
		t.Fatalf("pool: len %d, first %d, last %d", len(s), s[0], s[99])
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.95, 1004}, {0.99, 1008}, {1, 1009}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h obs.Hist
	// 100 values in [1024, 2048): the median lies mid-bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1024 + uint64(i))
	}
	if got := histQuantile(h.Snap(), 0.5); got != 1536 {
		t.Errorf("median of one full bucket = %v, want 1536", got)
	}
	// Add 300 values in [4096, 8192): the median moves a third into that
	// bucket.
	for i := 0; i < 300; i++ {
		h.Observe(5000)
	}
	want := 4096 + 4096*(200.0-100.0)/300.0
	if got := histQuantile(h.Snap(), 0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got := histQuantile(obs.HistSnap{}, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}
