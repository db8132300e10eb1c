package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuartilesSpread(t *testing.T) {
	// q1 and q3 are what Python's statistics.quantiles(xs, n=4) prints.
	cases := []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 7}, 6, 4.5, 7.5},
		{[]float64{10, 20, 30, 40, 1000}, 30, 15, 520},
		{[]float64{4}, 4, 4, 4},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.median) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %g q1 %g q3 %g, want %g %g %g", c.xs, m, q1, q3, c.median, c.q1, c.q3)
		}
		want := 0.0
		if c.median != 0 {
			want = (c.q3 - c.q1) / c.median
		}
		if s := spread(c.xs); !near(s, want) {
			t.Errorf("%v: spread %g, want %g", c.xs, s, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 4, 8}, 4},
		{[]float64{7}, 7},
		{[]float64{3, 0}, 0},  // a zero has no logarithm: no mean
		{[]float64{3, -1}, 0}, // nor has a negative
		{nil, 0},
	}
	for _, c := range cases {
		if g := geomean(c.xs); !near(g, c.want) {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, g, c.want)
		}
	}
}

func TestPercentileAndSupportedTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {64, 75}, {100, 90}, {320, 95}, {999, 95}, {1000, 99}, {6000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || d.TailPct != 90 || d.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v", d)
	}
}

func TestQuietest(t *testing.T) {
	// Three windows of four: a quiet one between two slow spells.
	xs := []float64{9, 8, 9, 10, 1, 2, 3, 6, 7, 9, 8, 20}
	if med, mean := quietest(xs, 4); med != 2.5 || mean != 3 {
		t.Errorf("quietest = median %g mean %g, want 2.5 and 3", med, mean)
	}
	// A trailing partial window is not a window.
	if med, _ := quietest(append(append([]float64{}, xs...), 0, 0), 4); med != 2.5 {
		t.Errorf("a partial window counted: median %g", med)
	}
	// Fewer than two windows: the plain median and mean.
	if med, mean := quietest([]float64{4, 1, 7}, 4); med != 4 || mean != 4 {
		t.Errorf("short sample: median %g mean %g, want 4 and 4", med, mean)
	}
	if med, mean := quietest(nil, 4); med != 0 || mean != 0 {
		t.Errorf("no samples: median %g mean %g, want 0 and 0", med, mean)
	}
}

func TestSlowCells(t *testing.T) {
	cells := make([]float64, 35)
	for i := range cells {
		cells[i] = float64(35 - i) // 35..1
	}
	if got := slowCells(cells); got != (35+34+33+32)/4.0 {
		t.Errorf("slowest tenth of 35 cells: %g, want the mean of the top 4, 33.5", got)
	}
	if got := slowCells([]float64{3, 9, 4, 1, 2, 5}); got != 9 {
		t.Errorf("slowest tenth of 6 cells: %g, want the slowest, 9", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60}, // overlaps span 2: 10..60 is covered once
		{ID: 4, Parent: 3, StartNS: 35, EndNS: 45},
		{ID: 5, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent: only 90..100 counts
	}
	self := selfNS(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 20, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
