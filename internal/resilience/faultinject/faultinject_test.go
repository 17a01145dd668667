package faultinject

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/cluster"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/trace"
)

// fastFaults is a FaultConfig scaled to test time: a silent worker is
// declared dead in ~300ms instead of 15s.
func fastFaults() cluster.FaultConfig {
	return cluster.FaultConfig{
		HeartbeatTimeout: 300 * time.Millisecond,
		MonitorInterval:  30 * time.Millisecond,
		RetryBackoff:     20 * time.Millisecond,
		MaxAttempts:      3,
	}
}

// injectedCluster is a coordinator with an attached Executor plus workers
// wrapped by a schedule's plans, started one by one so a test controls who
// is connected when. Workers heartbeat every 50ms; crashed workers exit Run
// cleanly (ErrCrash is a simulated death, not an error).
type injectedCluster struct {
	t       *testing.T
	c       *cluster.Coordinator
	exec    *cluster.Executor
	addr    string
	stopL   func() error
	workers []*cluster.Worker
	done    []chan error
}

func newInjectedCluster(t *testing.T, n int, sched *Schedule, fc cluster.FaultConfig) *injectedCluster {
	t.Helper()
	c := cluster.NewCoordinatorWith(fc)
	exec, err := cluster.NewExecutor(c)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	ic := &injectedCluster{t: t, c: c, exec: exec, addr: l.Addr().String(), stopL: l.Close}
	for i := 0; i < n; i++ {
		ic.workers = append(ic.workers, &cluster.Worker{
			ID:             fmt.Sprintf("worker-%d", i),
			HeartbeatEvery: 50 * time.Millisecond,
		})
	}
	sched.WrapAll(ic.workers)
	return ic
}

// start connects worker i.
func (ic *injectedCluster) start(i int) {
	done := make(chan error, 1)
	ic.done = append(ic.done, done)
	w := ic.workers[i]
	go func() { done <- w.Run(ic.addr) }()
}

// startAll connects every worker.
func (ic *injectedCluster) startAll() {
	for i := range ic.workers {
		ic.start(i)
	}
}

// wait blocks until the k-th started worker's Run returns.
func (ic *injectedCluster) wait(k int) {
	ic.t.Helper()
	select {
	case err := <-ic.done[k]:
		if err != nil {
			ic.t.Errorf("worker exit: %v", err)
		}
		ic.done[k] = nil
	case <-time.After(10 * time.Second):
		ic.t.Error("worker did not exit")
	}
}

// stop shuts the coordinator down and waits for every running worker.
func (ic *injectedCluster) stop() {
	ic.c.Shutdown()
	for k, d := range ic.done {
		if d != nil {
			ic.wait(k)
		}
	}
	ic.stopL()
}

// search runs a seeded nt3 search through the cluster's Executor.
func (ic *injectedCluster) search(matcher core.Matcher, budget, workers int, seed int64, n, s int) (*trace.Trace, error) {
	app, err := apps.New("nt3", 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}})
	if err != nil {
		return nil, err
	}
	return nas.Run(context.Background(), nas.Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, n, s),
		Matcher:  matcher,
		Budget:   budget,
		Workers:  workers,
		Seed:     seed,
		Executor: ic.exec,
	})
}

// TestSearchSurvivesWorkerCrashes is the headline resilience scenario: 4
// workers, a seeded schedule kills 2 of them mid-search, and the distributed
// run still completes its full budget with every candidate scored — the
// crashed workers' in-flight tasks are detected via missed heartbeats,
// requeued, and re-executed on the healthy survivors. The crashing workers
// connect first and the healthy ones only after both have died, so both
// crashes happen whatever the budget and however fast the survivors are.
func TestSearchSurvivesWorkerCrashes(t *testing.T) {
	prevEnabled := obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)
	before := obs.Take()

	sched := NewSchedule(11, 4, Options{CrashWorkers: 2, MaxCrashTask: 2})
	var crashing, healthy []int
	for i, p := range sched.Plans {
		if p.CrashAtTask > 0 {
			crashing = append(crashing, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	if len(crashing) != 2 {
		t.Fatalf("schedule crashes %d workers, want 2", len(crashing))
	}

	ic := newInjectedCluster(t, 4, sched, fastFaults())
	defer ic.stop()
	type outcome struct {
		tr  *trace.Trace
		err error
	}
	searched := make(chan outcome, 1)
	go func() {
		tr, err := ic.search(core.LCS{}, 8, 4, 3, 3, 2)
		searched <- outcome{tr, err}
	}()
	for k, i := range crashing {
		ic.start(i)
		ic.wait(k)
	}
	for _, i := range healthy {
		ic.start(i)
	}
	out := <-searched
	if out.err != nil {
		t.Fatal(out.err)
	}
	tr := out.tr
	if len(tr.Records) != 8 {
		t.Fatalf("records = %d, want the full budget of 8", len(tr.Records))
	}
	for _, r := range tr.Records {
		if r.Failed {
			t.Fatalf("candidate %d failed (%s); healthy workers should have absorbed the retries", r.ID, r.FailReason)
		}
		if len(r.Arch) == 0 {
			t.Fatalf("candidate %d has no architecture", r.ID)
		}
	}

	d := obs.Take().Delta(before)
	if got := d.Counters["faultinject.crashes"]; got != 2 {
		t.Fatalf("injected crashes = %d, want 2", got)
	}
	if got := d.Counters["cluster.workers.quarantined"]; got < 2 {
		t.Fatalf("quarantined = %d, want >= 2 (both crashed workers)", got)
	}
	if got := d.Counters["cluster.tasks.requeued"]; got < 2 {
		t.Fatalf("requeued = %d, want >= 2 (each crashed worker held a task)", got)
	}
}

// TestInjectedTaskFailuresAreRetried exercises the worker-error retry path:
// every worker fails its first task (FailEvery 1 would fail all; use a plan
// that fails once), and the coordinator retries until success.
func TestInjectedTaskFailuresAreRetried(t *testing.T) {
	prevEnabled := obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)
	before := obs.Take()

	// Every 3rd task on each worker errors; MaxAttempts 3 means the retry
	// (on any worker) almost surely lands off the failing index.
	sched := &Schedule{Plans: []Plan{{FailEvery: 3}, {FailEvery: 3}}}
	ic := newInjectedCluster(t, 2, sched, fastFaults())
	defer ic.stop()
	ic.startAll()
	tr, err := ic.search(nil, 6, 2, 7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(tr.Records))
	}
	d := obs.Take().Delta(before)
	if d.Counters["faultinject.failures"] == 0 {
		t.Fatal("schedule injected no failures; test exercised nothing")
	}
	if d.Counters["cluster.tasks.requeued"] == 0 {
		t.Fatal("injected task failures were never requeued")
	}
}

// TestDroppedResultsAreReclaimed loses results in transit; the coordinator's
// heartbeat/deadline machinery must re-run the task rather than hang.
func TestDroppedResultsAreReclaimed(t *testing.T) {
	// One worker drops its second result (evaluation runs, Submit skipped);
	// the task deadline reclaims the candidate and retries it.
	cfg := fastFaults()
	cfg.TaskDeadline = 400 * time.Millisecond
	ic := newInjectedCluster(t, 1, &Schedule{Plans: []Plan{{DropEvery: 2}}}, cfg)
	defer ic.stop()
	ic.startAll()
	tr, err := ic.search(nil, 4, 1, 9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(tr.Records))
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := NewSchedule(42, 8, Options{CrashWorkers: 3, MaxCrashTask: 5, DropEvery: 4})
	b := NewSchedule(42, 8, Options{CrashWorkers: 3, MaxCrashTask: 5, DropEvery: 4})
	for i := range a.Plans {
		if a.Plans[i] != b.Plans[i] {
			t.Fatalf("plan %d differs across same-seed schedules: %+v vs %+v", i, a.Plans[i], b.Plans[i])
		}
	}
	c := NewSchedule(43, 8, Options{CrashWorkers: 3, MaxCrashTask: 5})
	same := true
	for i := range a.Plans {
		if a.Plans[i].CrashAtTask != c.Plans[i].CrashAtTask {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical crash schedules")
	}
}
