package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"swtnas/internal/obs"
)

func TestFailedShareCountsAbortedBudget(t *testing.T) {
	if got := failedShare(10, 4); !near(got, 0.6) {
		t.Errorf("failedShare(10, 4) = %g, want 0.6", got)
	}
	// A search aborted before it finishes still attempted its whole budget.
	r := smallRunner(t, workloads[0], 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr, err := r.round(ctx, 1, false, r.w.units)
	if err != nil {
		t.Fatal(err)
	}
	attempted, completed := counts([]*roundRun{rr})
	if want := r.w.units * 4; attempted != want {
		t.Errorf("attempted = %d, want the whole budget %d", attempted, want)
	}
	if completed == attempted || failedShare(attempted, completed) <= 0 {
		t.Errorf("aborted round completed %d of %d; want failed_share > 0", completed, attempted)
	}
	if len(checkStreams([]*roundRun{rr})) == 0 {
		t.Error("output check passed an aborted round")
	}
}

// TestTracedRoundSnapshotsOnce pins that a traced round brackets the whole
// workload with a single snapshot pair, and that its layer figures come from
// that delta rather than from the tenants' own summaries, which overlap.
func TestTracedRoundSnapshotsOnce(t *testing.T) {
	w := findWorkload("uno-tenants-durable")
	r := smallRunner(t, w, 3)
	take := r.snapshot
	calls := 0
	r.snapshot = func() *obs.Snapshot { calls++; return take() }

	if _, err := r.round(context.Background(), 1, false, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("untraced round took %d snapshots, want 0", calls)
	}
	rr, err := r.round(context.Background(), 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("traced round took %d snapshots, want one pair", calls)
	}
	got := roundLayers(w, rr)["tensor.gemm_calls"]
	if want := float64(rr.delta.Counters["tensor.gemm.calls"]); got != want || got == 0 {
		t.Fatalf("tensor.gemm_calls = %g, want the round delta %g", got, want)
	}
	var summed float64
	for _, s := range searches([]*roundRun{rr}) {
		var doc struct{ Counters map[string]int64 }
		if err := json.Unmarshal(s.summary.Metrics, &doc); err != nil {
			t.Fatal(err)
		}
		summed += float64(doc.Counters["tensor.gemm.calls"])
	}
	if summed <= got {
		t.Errorf("summed tenant summaries %g <= round delta %g; the tenants did not overlap, so the test proves nothing", summed, got)
	}
}

// TestWorkloadsSmoke runs every workload at a short budget: an untraced
// run (one round plus the recheck) and a traced one (one round of each
// kind). The output check must pass and every metric must be finite.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := smallRunner(t, w, 3)
			plain, check, err := measure(r, 2, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != 1 || check == nil || len(check.units) != 1 {
				t.Fatalf("untraced run: %d rounds, recheck %v; want 1 round and a one-unit recheck", len(plain), check)
			}
			rounds, recheck, err := measure(r, 2, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(rounds) != 2 || recheck != nil || !rounds[1].traced {
				t.Fatalf("traced run: %d rounds, recheck %v; want an untraced and a traced round", len(rounds), recheck)
			}
			if bad := checkStreams(append(append(plain, check), rounds...)); len(bad) != 0 {
				t.Fatalf("output check: %v", bad)
			}
			e2e, _ := endToEnd(w, rounds)
			for _, m := range append(e2e, perLayer(w, rounds)...) {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
			layers := roundLayers(w, rounds[1])
			if journaled := layers["resilience.journal_appends"] > 0; journaled != w.durable {
				t.Errorf("durable %v but journal appends %g", w.durable, layers["resilience.journal_appends"])
			}
			if scored := layers["proxy.proposals"] > 0; scored != w.options().ProxyFilter {
				t.Errorf("ProxyFilter %v but proxy proposals %g", w.options().ProxyFilter, layers["proxy.proposals"])
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
	e2e, _ := endToEnd(workloads[0], nil)
	var code, listed []string
	for _, m := range e2e {
		code = append(code, m.name+" "+m.unit)
	}
	for _, m := range spec.EndToEnd {
		listed = append(listed, m.Name+" "+m.Unit)
	}
	if !equal(code, listed) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", listed, code)
	}
	code, listed = nil, nil
	for _, l := range layerNames {
		code = append(code, l.name+" "+l.unit)
	}
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name+" "+m.Unit)
	}
	if !equal(code, listed) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", listed, code)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smallRunner shrinks a workload's searches to budget candidates on small
// datasets, writing durable state under the test's temp dir.
func smallRunner(t *testing.T, w *workload, budget int) *runner {
	r := newRunner(w, t.TempDir())
	r.budget, r.trainN, r.valN = budget, 64, 32
	return r
}
