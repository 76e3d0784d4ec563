// Package stats holds the summary rules the fsdep benchmark reports
// with: nearest-rank percentiles under the "ten samples beyond" rule,
// quartiles computed exactly as Python's statistics.quantiles does,
// open-loop due-time latency and generator lateness, backlog-growth
// detection for the rate ladder, and the parent-versus-change verdict.
package stats

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It returns NaN for an empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists, highest first, the percentiles TailPercentile
// chooses from.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// TailPercentile returns the highest of p99.99, p99.9, p99, p90 and
// p50 that leaves at least ten of n samples beyond it, or 0 when even
// the median does not (n < 20). A tail percentile resting on fewer
// samples is one outlier's value, not a property of the system.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// Median returns the middle sample of xs (the mean of the two middle
// samples for an even count), or NaN for an empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, or NaN for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quartiles returns the three cut points dividing xs into quarters,
// computed like Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads reported here match one
// recomputed in Python. It needs at least two samples; with fewer
// every cut point is the single sample (or NaN when there is none).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread returns the interquartile range of xs as a share of its
// median: the run-to-run noise measure every bound is checked against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// Schedule returns the due times of an open-loop generator sending at
// a constant rate (requests per second) for d: request i is due at
// i/rate. Constant spacing, rather than Poisson arrivals, keeps the
// arrival process itself from adding run-to-run variance.
func Schedule(rate float64, d time.Duration) []time.Duration {
	if rate <= 0 || d <= 0 {
		return nil
	}
	n := int(math.Ceil(rate * d.Seconds()))
	due := make([]time.Duration, 0, n)
	for i := 0; ; i++ {
		t := time.Duration(float64(i) / rate * float64(time.Second))
		if t >= d {
			return due
		}
		due = append(due, t)
	}
}

// Request is one open-loop request's timeline, as offsets from the
// start of its schedule.
type Request struct {
	// Due is when the schedule said to send it.
	Due time.Duration
	// Dispatched is when the generator queued it for a connection.
	Dispatched time.Duration
	// Done is when its response completed.
	Done time.Duration
}

// Latency is the due-time latency: measured from when the request
// was due, not from when a connection got round to sending it, so a
// stall is charged to every request queued behind it.
func (r Request) Latency() time.Duration { return r.Done - r.Due }

// Late is how far behind its schedule the generator itself ran. A
// generator that runs late under-loads the system it measures, which
// makes the latencies of that rung invalid.
func (r Request) Late() time.Duration { return r.Dispatched - r.Due }

// Growing reports whether a queue-depth series, sampled at a steady
// interval across one rung, shows a backlog that builds up instead of
// fluctuating around a level: the mean of the last quarter of the
// samples exceeds the mean of the first quarter by more than half
// again plus two requests. Fewer than eight samples never count as
// growing.
func Growing(depth []int) bool {
	n := len(depth)
	if n < 8 {
		return false
	}
	quarter := n / 4
	mean := func(xs []int) float64 {
		var sum int
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	first := mean(depth[:quarter])
	last := mean(depth[n-quarter:])
	return last > 1.5*first+2
}

// Verdict classifies one metric of a parent-versus-change comparison.
type Verdict string

const (
	// Same: the change is within the bound and claims no gain.
	Same Verdict = "same"
	// Gain: the change won at least nine tenths of at least ten pairs
	// and its median moved by more than the parent's interquartile
	// range.
	Gain Verdict = "gain"
	// Regression: the change's median is worse than the parent's by
	// more than the bound.
	Regression Verdict = "regression"
	// Unresolved: the runs spread wider than the bound, so neither
	// "same" nor "regression" can be told apart from noise.
	Unresolved Verdict = "unresolved"
)

// Rule is what a comparison needs to know about one metric.
type Rule struct {
	// LowerIsBetter is the metric's direction.
	LowerIsBetter bool
	// Bound is the share of the parent's median by which the change
	// may be worse before it counts as a regression.
	Bound float64
}

// Comparison is the outcome of Compare for one metric.
type Comparison struct {
	Verdict                    Verdict
	ParentMedian, ChangeMedian float64
	// ParentSpread and ChangeSpread are each side's interquartile
	// range as a share of its median.
	ParentSpread, ChangeSpread float64
	// Worse is how much worse the change's median is than the
	// parent's, as a share of the parent's (negative when better).
	Worse float64
	// Wins counts pairs the change won; ties count for neither side.
	Wins, Pairs int
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// Compare applies the parent-versus-change rule to runs of one
// metric. Runs pair by index, parent[i] with change[i], in the order
// they ran, which alternates which side went first.
//
// The change regresses when its median is worse than the parent's by
// more than the bound. It gains only when it wins at least nine tenths
// of at least ten pairs and the medians differ by more than the
// parent's interquartile range. When either side's spread exceeds the
// bound the metric is unresolved, unless every run of the change is
// better than every run of the parent.
func Compare(parent, change []float64, r Rule) Comparison {
	c := Comparison{
		ParentMedian: Median(parent),
		ChangeMedian: Median(change),
		ParentSpread: Spread(parent),
		ChangeSpread: Spread(change),
		Pairs:        min(len(parent), len(change)),
	}
	better := func(a, b float64) bool { // a better than b
		if r.LowerIsBetter {
			return a < b
		}
		return a > b
	}
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	c.Worse = (c.ChangeMedian - c.ParentMedian) / math.Abs(c.ParentMedian)
	if !r.LowerIsBetter {
		c.Worse = -c.Worse
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, x := range change {
		for _, y := range parent {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	q1, _, q3 := Quartiles(parent)
	gain := c.Pairs >= minPairs && c.Wins*10 >= c.Pairs*9 &&
		better(c.ChangeMedian, c.ParentMedian) &&
		math.Abs(c.ChangeMedian-c.ParentMedian) > q3-q1
	noisy := c.ParentSpread > r.Bound || c.ChangeSpread > r.Bound
	switch {
	case noisy && !allBetter:
		c.Verdict = Unresolved
	case c.Worse > r.Bound:
		c.Verdict = Regression
	case gain:
		c.Verdict = Gain
	default:
		c.Verdict = Same
	}
	return c
}
