package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one reported figure with the number of samples it rests on.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// searches lists every search of the given rounds.
func searches(rounds []*roundRun) []*searchRun {
	var out []*searchRun
	for _, rr := range rounds {
		for i := range rr.units {
			for j := range rr.units[i].searches {
				out = append(out, &rr.units[i].searches[j])
			}
		}
	}
	return out
}

// counts sums the attempted budget and the completed candidates of rounds.
func counts(rounds []*roundRun) (attempted, completed int) {
	for _, s := range searches(rounds) {
		attempted += s.budget
		completed += len(s.cands)
	}
	return attempted, completed
}

// setupTime is the time from a unit's start to its first evaluation
// starting: the earliest candidate arrival minus that candidate's EvalTime.
func setupTime(u *unitRun) (time.Duration, bool) {
	var first time.Duration
	ok := false
	for i := range u.searches {
		s := &u.searches[i]
		for k, c := range s.cands {
			if t := s.arrived[k] - c.EvalTime; !ok || t < first {
				first, ok = t, true
			}
		}
	}
	return first, ok
}

// timeToTarget is the arrival offset of the first candidate whose running
// best reaches target. A search that never reaches it reports its last
// arrival (the time is censored at the search's end) and reached=false.
func timeToTarget(s *searchRun, target float64) (t time.Duration, reached bool) {
	for k, c := range s.cands {
		if c.BestScore >= target {
			return s.arrived[k], true
		}
	}
	if n := len(s.arrived); n > 0 {
		return s.arrived[n-1], false
	}
	return 0, false
}

// endToEnd computes the user-facing metrics over untraced rounds: per-round
// figures are reported as their median over rounds, per-candidate and
// per-search figures over the pooled samples.
func endToEnd(w *workload, rounds []*roundRun) (ms []metric, notes []string) {
	var cpuPer, setups, rss, ttts, evals []float64
	var scoreSum float64
	reached := 0
	for _, rr := range rounds {
		_, done := counts([]*roundRun{rr})
		cpuPer = append(cpuPer, ratio(float64(rr.cpu)/float64(time.Millisecond), float64(done)))
		for i := range rr.units {
			if t, ok := setupTime(&rr.units[i]); ok {
				setups = append(setups, t.Seconds())
			}
			rss = append(rss, rr.units[i].peakRSSMB)
		}
	}
	ss := searches(rounds)
	for _, s := range ss {
		t, ok := timeToTarget(s, w.target)
		ttts = append(ttts, t.Seconds())
		if ok {
			reached++
		}
		for _, c := range s.cands {
			evals = append(evals, float64(c.EvalTime)/float64(time.Millisecond))
			scoreSum += c.Score
		}
	}
	attempted, completed := counts(rounds)
	p50, n := percentile(evals, 0.5)
	p90, _ := percentile(evals, 0.9)
	ms = []metric{
		{"cand_per_s", "1/s", candPerS(rounds), len(rounds)},
		{"cpu_ms_per_cand", "ms", median(cpuPer), len(cpuPer)},
		{"eval_p50_ms", "ms", p50, n},
		{"eval_p90_ms", "ms", p90, n},
		{"time_to_target_s", "s", mean(ttts), len(ttts)},
		{"mean_score", "score", ratio(scoreSum, float64(len(evals))), len(evals)},
		{"completed_share", "ratio", 1 - failedShare(attempted, completed), attempted},
		{"setup_s", "s", median(setups), len(setups)},
		{"peak_rss_mb", "MB", median(rss), len(rss)},
	}
	notes = append(notes,
		fmt.Sprintf("failed_share = %g (%d of %d candidates not completed)", failedShare(attempted, completed), attempted-completed, attempted),
		fmt.Sprintf("time_to_target_s: target score %g reached by %d of %d searches", w.target, reached, len(ss)))
	return ms, notes
}

// layerNames fixes the order and units of the traced run's metrics.
var layerNames = []struct{ name, unit string }{
	{"tensor.gemm_s", "s"},
	{"tensor.gemm_calls", "count"},
	{"tensor.gemm_gflop_per_s", "GFLOP/s"},
	{"tensor.gemm_kflop_per_call", "kFLOP"},
	{"nn.forward_s", "s"},
	{"nn.backward_s", "s"},
	{"nn.optimizer_s", "s"},
	{"nn.non_gemm_s", "s"},
	{"nn.batches", "count"},
	{"parallel.for_calls", "count"},
	{"parallel.offload_share", "ratio"},
	{"nas.eval_s", "s"},
	{"nas.queue_wait_s", "s"},
	{"nas.idle_share", "ratio"},
	{"nas.pool_kernel_workers", "count"},
	{"core.transfer_s", "s"},
	{"core.warm_share", "ratio"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.load_s", "s"},
	{"checkpoint.save_mb", "MB"},
	{"checkpoint.dedup_share", "ratio"},
	{"checkpoint.gc_deleted", "count"},
	{"checkpoint.disk_mb", "MB"},
	{"resilience.journal_appends", "count"},
	{"resilience.journal_kb", "kB"},
	{"proxy.score_s", "s"},
	{"proxy.proposals", "count"},
	{"proxy.admit_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// roundLayers derives one traced round's per-layer figures from the round's
// single registry delta and the benchmark's own view of the public calls.
func roundLayers(w *workload, rr *roundRun) map[string]float64 {
	d := rr.delta
	c := func(name string) float64 { return float64(d.Counters[name]) }
	h := func(name string) float64 { return d.Histograms[name].Sum }

	var evalSum, waitSum time.Duration
	var warm, evaluated int
	var disk, kernel []float64
	for _, s := range searches([]*roundRun{rr}) {
		for _, cand := range s.cands {
			evalSum += cand.EvalTime
			waitSum += cand.QueueWait
			evaluated++
			if cand.TransferredLayers > 0 {
				warm++
			}
		}
		if w.durable {
			disk = append(disk, s.diskMB)
		}
		kernel = append(kernel, s.kernelWorkers...)
	}
	gemmS := h("tensor.gemm.seconds")
	flops := c("tensor.gemm.flops")
	fwd, bwd, opt := h("nn.fit.forward.seconds"), h("nn.fit.backward.seconds"), h("nn.fit.optimizer.seconds")
	return map[string]float64{
		"tensor.gemm_s":              gemmS,
		"tensor.gemm_calls":          c("tensor.gemm.calls"),
		"tensor.gemm_gflop_per_s":    ratio(flops/1e9, gemmS),
		"tensor.gemm_kflop_per_call": ratio(flops/1e3, c("tensor.gemm.calls")),
		"nn.forward_s":               fwd,
		"nn.backward_s":              bwd,
		"nn.optimizer_s":             opt,
		"nn.non_gemm_s":              fwd + bwd + opt - gemmS,
		"nn.batches":                 c("nn.fit.batches"),
		"parallel.for_calls":         c("parallel.for.calls"),
		"parallel.offload_share":     offloadShare(d.Counters["parallel.shards.offloaded"], d.Counters["parallel.shards.inline"]),
		"nas.eval_s":                 evalSum.Seconds(),
		"nas.queue_wait_s":           waitSum.Seconds(),
		"nas.idle_share":             idleShare(evalSum, rr.wall, w.tenants),
		"nas.pool_kernel_workers":    mean(kernel),
		"core.transfer_s":            h("nas.transfer.seconds"),
		"core.warm_share":            ratio(float64(warm), float64(evaluated)),
		"checkpoint.save_s":          h("checkpoint.store.save.seconds"),
		"checkpoint.load_s":          h("checkpoint.store.load.seconds"),
		"checkpoint.save_mb":         c("checkpoint.store.save.bytes") / 1e6,
		"checkpoint.dedup_share":     ratio(c("checkpoint.cas.blobs.deduped"), c("checkpoint.cas.blobs.stored")+c("checkpoint.cas.blobs.deduped")),
		"checkpoint.gc_deleted":      c("nas.gc.checkpoints.deleted"),
		"checkpoint.disk_mb":         mean(disk),
		"resilience.journal_appends": c("resilience.journal.appends"),
		"resilience.journal_kb":      c("resilience.journal.bytes") / 1e3,
		"proxy.score_s":              h("proxy.score.seconds"),
		"proxy.proposals":            c("proxy.proposals"),
		"proxy.admit_share":          ratio(c("proxy.admitted"), c("proxy.proposals")),
	}
}

// perLayer reports each layer figure as its median over the traced rounds,
// and the tracing overhead as 1 - traced ÷ untraced median cand_per_s.
func perLayer(w *workload, rounds []*roundRun) []metric {
	var traced, plain []*roundRun
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	vals := map[string][]float64{}
	for _, rr := range traced {
		for k, v := range roundLayers(w, rr) {
			vals[k] = append(vals[k], v)
		}
	}
	vals["trace.overhead_share"] = []float64{1 - ratio(candPerS(traced), candPerS(plain))}
	ms := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		ms = append(ms, metric{l.name, l.unit, median(vals[l.name]), len(vals[l.name])})
	}
	return ms
}

// candPerS is the median over rounds of completed candidates per wall second.
func candPerS(rounds []*roundRun) float64 {
	var xs []float64
	for _, rr := range rounds {
		_, done := counts([]*roundRun{rr})
		xs = append(xs, float64(done)/rr.wall.Seconds())
	}
	return median(xs)
}

// mean is the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// checkStreams verifies the output of every round: each search finished its
// whole budget with a nil error and finite scores, and each search's
// candidate stream (id, arch, parent, score bits) is identical in every
// round. It returns one line per violation.
func checkStreams(rounds []*roundRun) []string {
	var bad []string
	for r, rr := range rounds {
		for u := range rr.units {
			for t := range rr.units[u].searches {
				s := &rr.units[u].searches[t]
				where := fmt.Sprintf("round %d unit %d search seed %d data %d", r, u, s.seed, s.dataSeed)
				if s.err != nil {
					bad = append(bad, fmt.Sprintf("%s: %v", where, s.err))
				}
				if len(s.cands) != s.budget {
					bad = append(bad, fmt.Sprintf("%s: %d of %d candidates", where, len(s.cands), s.budget))
				}
				for _, c := range s.cands {
					if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) {
						bad = append(bad, fmt.Sprintf("%s: candidate %d score %v", where, c.ID, c.Score))
					}
				}
				if r > 0 {
					if msg := diffStream(&rounds[0].units[u].searches[t], s); msg != "" {
						bad = append(bad, fmt.Sprintf("%s differs from round 0: %s", where, msg))
					}
				}
			}
		}
	}
	return bad
}

// diffStream describes the first difference between two candidate streams,
// or returns "" when they match.
func diffStream(a, b *searchRun) string {
	if len(a.cands) != len(b.cands) {
		return fmt.Sprintf("%d vs %d candidates", len(a.cands), len(b.cands))
	}
	for i := range a.cands {
		x, y := a.cands[i], b.cands[i]
		if x.ID != y.ID || x.ParentID != y.ParentID || math.Float64bits(x.Score) != math.Float64bits(y.Score) || fmt.Sprint(x.Arch) != fmt.Sprint(y.Arch) {
			return fmt.Sprintf("candidate %d: id %d/%d parent %d/%d arch %v/%v score %v/%v",
				i, x.ID, y.ID, x.ParentID, y.ParentID, x.Arch, y.Arch, x.Score, y.Score)
		}
	}
	return ""
}
