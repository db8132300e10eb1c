package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the middle pair for even
// n, 0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the rule Python's
// statistics.quantiles(xs, n=4) uses (exclusive method), so a spread computed
// here matches one computed from the printed values. Fewer than two samples
// have no spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// geomean returns the geometric mean of xs; 0 when xs is empty or holds a
// value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// percentile reads the p-th percentile (0 < p < 100) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentiles are the percentiles a timing may be reported at.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// supportedTail returns the highest reportable percentile that has at least
// ten of the n samples beyond it, or 0 when even the median has not.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			best = p
		}
	}
	return best
}

// dist summarizes one timing sample: count, median, quartiles and the
// highest percentile the count supports.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), P50: median(xs)}
	d.Q1, d.Q3 = quartiles(xs)
	if d.TailPct = supportedTail(len(xs)); d.TailPct > 0 {
		d.Tail = percentile(xs, d.TailPct)
	}
	return d
}

// quietWindow is how many consecutive operations make one window of
// quietest. Eight requests of the exec cells last 1-70 ms: shorter than the
// host's slow spells, long enough for a median.
const quietWindow = 8

// quietest splits xs, in the order measured, into windows of k consecutive
// samples and returns the smallest window median and the smallest window
// mean. On a shared host contention only ever adds time, in spells; the
// quietest window reads what the code costs when the host leaves it alone,
// where the median of the whole run reads how busy the neighbours were.
// Fewer than 2k samples are one window: the plain median and mean.
func quietest(xs []float64, k int) (med, mean float64) {
	if len(xs) < 2*k {
		return median(xs), sum(xs) / float64(max(len(xs), 1))
	}
	med, mean = math.Inf(1), math.Inf(1)
	for lo := 0; lo+k <= len(xs); lo += k {
		w := xs[lo : lo+k]
		med, mean = min(med, median(w)), min(mean, sum(w)/float64(k))
	}
	return med, mean
}

// slowCells is tail_ms: the slow end of the mix, the mean of the slowest tenth
// of the cells' values (at least one cell). A percentile of the requests was
// tried first; on the shared host it read the neighbours' load (10-run
// spreads of 5-30 %), so percentiles stay in the per-cell rows.
func slowCells(perCell []float64) float64 {
	s := sorted(perCell)
	k := (len(s) + 9) / 10
	return sum(s[len(s)-k:]) / float64(max(k, 1))
}

// ms and us convert a duration to the float milliseconds and microseconds the
// metrics are reported in.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
