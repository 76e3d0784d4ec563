package stats

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	// Shuffle-insensitive: reverse the input.
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {90, 900}, {99, 990}, {100, 1000}, {0.01, 1},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// The rule's contract: at p99 of 1000 samples, exactly ten lie
	// beyond the reported value.
	p := Percentile(xs, TailPercentile(len(xs)))
	beyond := 0
	for _, x := range xs {
		if x > p {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail percentile, want 10", beyond)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of no samples should be NaN")
	}
}

// Expected values from Python 3: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(11), 3, 6, 9},
		{seq(4), 1.25, 2.5, 3.75},
		{seq(2), 0.75, 1.5, 2.25},
		{[]float64{7, 1, 3, 9, 5}, 2, 5, 8},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
	if got := Spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("Spread of constant runs = %v, want 0", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestScheduleIsConstantRate(t *testing.T) {
	due := Schedule(200, 2*time.Second)
	if len(due) != 400 {
		t.Fatalf("200/s for 2s scheduled %d requests, want 400", len(due))
	}
	for i := 1; i < len(due); i++ {
		if gap := due[i] - due[i-1]; gap < 4999*time.Microsecond || gap > 5001*time.Microsecond {
			t.Fatalf("gap %d = %v, want 5ms", i, gap)
		}
	}
	if Schedule(0, time.Second) != nil {
		t.Error("zero rate should schedule nothing")
	}
}

func TestDueTimeLatencyChargesQueueing(t *testing.T) {
	// A stall: the request was due at 10ms, the generator queued it at
	// 11ms, a busy connection sent it late, and it completed at 40ms.
	// Its latency counts from 10ms, and the generator ran 1ms late.
	r := Request{Due: 10 * time.Millisecond, Dispatched: 11 * time.Millisecond, Done: 40 * time.Millisecond}
	if got := r.Latency(); got != 30*time.Millisecond {
		t.Errorf("latency = %v, want 30ms", got)
	}
	if got := r.Late(); got != time.Millisecond {
		t.Errorf("lateness = %v, want 1ms", got)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := []int{0, 1, 0, 2, 1, 0, 1, 3, 0, 1, 2, 0, 1, 0, 2, 1}
	if Growing(flat) {
		t.Error("a fluctuating backlog is not growing")
	}
	ramp := make([]int, 40)
	for i := range ramp {
		ramp[i] = i * 3
	}
	if !Growing(ramp) {
		t.Error("a linear ramp is growing")
	}
	spike := []int{1, 0, 1, 1, 0, 1, 9, 14, 9, 2, 1, 0, 1, 1, 0, 1}
	if Growing(spike) {
		t.Error("a backlog that drains after a stall is not growing")
	}
	if Growing([]int{0, 50, 100}) {
		t.Error("too few samples must never count as growing")
	}
}

func pairs(parent, change float64, n int, jitter float64) ([]float64, []float64) {
	p := make([]float64, n)
	c := make([]float64, n)
	for i := range p {
		d := jitter * float64(i%3-1)
		p[i], c[i] = parent+d, change+d
	}
	return p, c
}

func TestCompareVerdicts(t *testing.T) {
	lower := Rule{LowerIsBetter: true, Bound: 0.1}

	p, c := pairs(10, 10.2, 10, 0.1)
	if v := Compare(p, c, lower).Verdict; v != Same {
		t.Errorf("2%% worse within a 10%% bound: %v, want same", v)
	}
	p, c = pairs(10, 12, 10, 0.1)
	if v := Compare(p, c, lower).Verdict; v != Regression {
		t.Errorf("20%% worse: %v, want regression", v)
	}
	p, c = pairs(10, 8, 10, 0.1)
	if v := Compare(p, c, lower).Verdict; v != Gain {
		t.Errorf("20%% better in every pair: %v, want gain", v)
	}
	p, c = pairs(10, 8, 9, 0.1)
	if v := Compare(p, c, lower).Verdict; v != Same {
		t.Errorf("a gain on nine pairs: %v, want same (needs ten)", v)
	}
	// Better median, but by less than the parent's own spread.
	p, c = pairs(10, 9.5, 10, 0.5)
	if v := Compare(p, c, Rule{LowerIsBetter: true, Bound: 0.2}).Verdict; v != Same {
		t.Errorf("a move inside the parent's IQR: %v, want same", v)
	}
	// Runs spreading wider than the bound cannot be resolved.
	p, c = pairs(10, 10, 12, 3)
	if v := Compare(p, c, lower).Verdict; v != Unresolved {
		t.Errorf("30%% spread against a 10%% bound: %v, want unresolved", v)
	}
	// Higher-is-better metrics flip the direction.
	higher := Rule{Bound: 0.1}
	p, c = pairs(100, 80, 10, 1)
	if got := Compare(p, c, higher); got.Verdict != Regression || got.Worse < 0.19 {
		t.Errorf("throughput down 20%%: %+v, want regression", got)
	}
}
