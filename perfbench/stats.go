package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the closest ranks, together with the sample count it
// rests on. An empty sample gives (0, 0).
func percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), n
}

// median is percentile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// idleShare is the share of evaluator capacity left unused over a wall
// interval: 1 - ΣEvalTime ÷ (wall × slots).
func idleShare(evalSum, wall time.Duration, slots int) float64 {
	if wall <= 0 || slots <= 0 {
		return 0
	}
	return 1 - evalSum.Seconds()/(wall.Seconds()*float64(slots))
}

// offloadShare is the share of parallel.For shards handed to a pool worker
// rather than run on the calling goroutine.
func offloadShare(offloaded, inline int64) float64 {
	return ratio(float64(offloaded), float64(offloaded+inline))
}

// failedShare is candidates not completed ÷ candidates attempted. An aborted
// search attempts its whole budget, so its unfinished part counts as failed.
func failedShare(attempted, completed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-completed) / float64(attempted)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
