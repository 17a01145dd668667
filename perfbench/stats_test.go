package main

import (
	"math"
	"testing"
	"time"

	"swtnas"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		v, n := percentile(xs, tc.q)
		if !near(v, tc.want) || n != len(xs) {
			t.Errorf("percentile(q=%g) = %g, n=%d; want %g, n=%d", tc.q, v, n, tc.want, len(xs))
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 0.9); v != 0 || n != 0 {
		t.Errorf("empty percentile = %g, n=%d; want 0, 0", v, n)
	}
	if v, n := percentile([]float64{4}, 0.9); v != 4 || n != 1 {
		t.Errorf("single-sample percentile = %g, n=%d; want 4, 1", v, n)
	}
}

func TestIdleShare(t *testing.T) {
	// Two slots over 2s offer 4 evaluator-seconds; 3 were spent evaluating.
	if got := idleShare(3*time.Second, 2*time.Second, 2); !near(got, 0.25) {
		t.Errorf("idleShare = %g, want 0.25", got)
	}
	if got := idleShare(time.Second, time.Second, 1); !near(got, 0) {
		t.Errorf("fully busy idleShare = %g, want 0", got)
	}
	if got := idleShare(0, 0, 1); got != 0 {
		t.Errorf("zero-wall idleShare = %g, want 0", got)
	}
}

func TestOffloadShare(t *testing.T) {
	if got := offloadShare(30, 10); !near(got, 0.75) {
		t.Errorf("offloadShare(30, 10) = %g, want 0.75", got)
	}
	if got := offloadShare(0, 0); got != 0 {
		t.Errorf("offloadShare with no shards = %g, want 0", got)
	}
}

func TestCheckStreamsFlagsDrift(t *testing.T) {
	mk := func(score float64) *roundRun {
		return &roundRun{units: []unitRun{{searches: []searchRun{{
			seed: 1, budget: 1,
			cands:   []swtnas.Candidate{{ID: 0, Arch: []int{1, 2}, ParentID: -1, Score: score}},
			arrived: []time.Duration{time.Millisecond},
		}}}}}
	}
	if bad := checkStreams([]*roundRun{mk(0.5), mk(0.5)}); len(bad) != 0 {
		t.Errorf("identical rounds flagged: %v", bad)
	}
	if bad := checkStreams([]*roundRun{mk(0.5), mk(math.Nextafter(0.5, 1))}); len(bad) != 1 {
		t.Errorf("a one-ulp score drift gave %d problems, want 1: %v", len(bad), bad)
	}
	if bad := checkStreams([]*roundRun{mk(math.NaN())}); len(bad) != 1 {
		t.Errorf("a NaN score gave %d problems, want 1: %v", len(bad), bad)
	}
}
