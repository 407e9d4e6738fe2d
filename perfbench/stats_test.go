package main

import (
	"math"
	"testing"
)

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 98; i++ {
		xs = append(xs, float64(i))
	}
	xs = append(xs, failedLatency, failedLatency)
	if got := quantile(xs, 0.50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf with two of 100 requests failed", got)
	}
	if got := finite(quantile(xs, 0.99)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{}
	root := r.add(1, -1, "request", 0, 100)
	r.add(1, root, "a", 10, 30)
	r.add(1, root, "b", 20, 50)  // overlaps a: covered once
	r.add(1, root, "c", 90, 120) // runs past the parent: clipped
	st := selfTimes([]*recorder{r})
	if got := st["request"]; got.Count != 1 || got.TotalNs != 100 || got.SelfNs != 100-40-10 {
		t.Errorf("request = %+v, want total 100, self 50", got)
	}
	if got := st["b"]; got.SelfNs != 30 {
		t.Errorf("b self = %d, want 30 (no children)", got.SelfNs)
	}
}

func TestLatencyP50FromQuietestWindows(t *testing.T) {
	// Six windows; the two with the least steal (a third) decide the p50.
	lat := []float64{100, 1, 100, 3, 100, 100}
	steal := []float64{0.3, 0.01, 0.2, 0, 0.1, 0.4}
	var samples []sample
	for w, ms := range lat {
		for i := 0; i < 10; i++ {
			due := int64(w)*int64(latencyWindow) + 1
			samples = append(samples, sample{kind: kindRead, due: due, done: due + int64(ms*1e6), ok: true})
		}
	}
	b := newBench(options{}, toy, t.TempDir())
	b.latencies(samples, steal)
	if got := b.layer["read_p50_ms"].Value; got != 2 {
		t.Errorf("p50 = %v, want 2 (median of the two quietest windows)", got)
	}
	if got := b.layer["read_p99_ms"].Value; got != 100 {
		t.Errorf("p99 = %v, want 100 (taken over every window)", got)
	}
}

func TestQuietMedianChoosesByStealNotValue(t *testing.T) {
	// The lowest value was measured in a stolen window; it is not chosen.
	if got := quietMedian([]float64{5, 1, 9}, []float64{0, 0.5, 0.1}, 1.0/3); got != 5 {
		t.Errorf("quietMedian = %v, want 5", got)
	}
	// Entries tied with the quietest share are all kept.
	if got := quietMedian([]float64{4, 8, 1, 2, 50}, []float64{0, 0, 0, 0, 0.2}, 0.2); got != 3 {
		t.Errorf("quietMedian with equal steal = %v, want 3", got)
	}
}
