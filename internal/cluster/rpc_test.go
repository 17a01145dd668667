package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/trace"
)

// startCluster spins up a coordinator with an attached Executor on a
// loopback port plus n in-process workers (each passed through setup, when
// non-nil, before it runs), returning the executor and a stop function.
func startCluster(t *testing.T, n int, cfg FaultConfig, setup func(*Worker)) (*Executor, func()) {
	t.Helper()
	c := NewCoordinatorWith(cfg)
	x, err := NewExecutor(c)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		w := &Worker{ID: fmt.Sprintf("worker-%d", i), HeartbeatEvery: 50 * time.Millisecond}
		if setup != nil {
			setup(w)
		}
		go func() { done <- w.Run(l.Addr().String()) }()
	}
	stop := func() {
		c.Shutdown()
		for i := 0; i < n; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("worker exit: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("worker did not shut down")
			}
		}
		l.Close()
	}
	return x, stop
}

func tinyApp(t testing.TB) *apps.App {
	t.Helper()
	app, err := apps.New("nt3", 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// searchConfig is the seeded nt3 search the remote tests share.
func searchConfig(t testing.TB, budget, workers int) nas.Config {
	app := tinyApp(t)
	return nas.Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Matcher:  core.LCS{},
		Store:    checkpoint.NewCASMemStore(),
		Budget:   budget,
		Seed:     3,
		Workers:  workers,
	}
}

// recordsEqual pins two traces to the same candidates: id, parent, arch,
// params, copied layers, score bits and failure marks.
func recordsEqual(t *testing.T, a, b *trace.Trace, label string) {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: %d records vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.ID != rb.ID || ra.ParentID != rb.ParentID || ra.Params != rb.Params ||
			ra.TransferCopied != rb.TransferCopied || ra.Score != rb.Score ||
			ra.Failed != rb.Failed || fmt.Sprint(ra.Arch) != fmt.Sprint(rb.Arch) {
			t.Fatalf("%s: record %d differs:\n  %+v\n  %+v", label, i, ra, rb)
		}
	}
}

func TestWorkerExecutesTask(t *testing.T) {
	w := &Worker{ID: "w0"}
	task := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Seed: 5,
	}
	res := w.Execute(task)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.ID != 1 || res.WorkerID != "w0" {
		t.Fatalf("result header = %+v", res)
	}
	if len(res.Checkpoint) == 0 || res.Params <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The evaluator cache must serve a second task without rebuilding.
	res2 := w.Execute(task)
	if res2.Err != "" {
		t.Fatal(res2.Err)
	}
}

func TestWorkerRejectsBadTask(t *testing.T) {
	w := &Worker{ID: "w0"}
	if res := w.Execute(RPCTask{App: "bogus"}); res.Err == "" {
		t.Fatal("unknown app must fail")
	}
	bad := RPCTask{ID: 1, App: "nt3", DataSeed: 1, TrainN: 16, ValN: 8, Arch: []int{1}}
	if res := w.Execute(bad); res.Err == "" {
		t.Fatal("invalid arch must fail")
	}
	withParent := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 16, ValN: 8,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Matcher: "LCS", Parent: []byte("garbage"),
	}
	if res := w.Execute(withParent); res.Err == "" {
		t.Fatal("corrupt parent checkpoint must fail")
	}
	withParent.Matcher = "nope"
	if res := w.Execute(withParent); res.Err == "" {
		t.Fatal("unknown matcher must fail")
	}
}

func TestWorkerTransfersFromInlineParent(t *testing.T) {
	w := &Worker{ID: "w"}
	arch := []int{0, 0, 0, 0, 0, 0, 0, 0}
	parentRes := w.Execute(RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 5,
	})
	if parentRes.Err != "" {
		t.Fatal(parentRes.Err)
	}
	child := w.Execute(RPCTask{
		ID: 2, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 6, Matcher: "LCS", ParentID: 1, Parent: parentRes.Checkpoint,
	})
	if child.Err != "" {
		t.Fatal(child.Err)
	}
	// Same architecture: every layer group must be warm-started.
	m, err := checkpoint.Decode(bytes.NewReader(parentRes.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	if child.Copied != len(m.Groups) {
		t.Fatalf("copied %d of %d groups", child.Copied, len(m.Groups))
	}
}

func TestDistributedSearchOverTCP(t *testing.T) {
	x, stop := startCluster(t, 2, FaultConfig{}, nil)
	defer stop()
	cfg := searchConfig(t, 8, 2)
	cfg.Executor = x
	var streamed []nas.Result
	cfg.Progress = func(r nas.Result) { streamed = append(streamed, r) }
	tr, err := nas.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 8 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	// Progress streamed the same candidates the trace recorded, in order.
	if len(streamed) != len(tr.Records) {
		t.Fatalf("streamed %d results, trace has %d", len(streamed), len(tr.Records))
	}
	for i := range streamed {
		if streamed[i].ID != tr.Records[i].ID || streamed[i].Score != tr.Records[i].Score {
			t.Fatalf("streamed result %d = %+v, trace has %+v", i, streamed[i], tr.Records[i])
		}
	}
	if tr.Scheme != "LCS" {
		t.Fatalf("scheme = %q", tr.Scheme)
	}
	transferred := 0
	for _, r := range tr.Records {
		if r.CheckpointBytes == 0 {
			t.Fatal("missing checkpoint bytes")
		}
		if _, err := cfg.Store.Load(nas.CandidateID(r.ID)); err != nil {
			t.Fatalf("candidate %d checkpoint not in the search's store: %v", r.ID, err)
		}
		if r.TransferCopied > 0 {
			transferred++
		}
	}
	if transferred == 0 {
		t.Fatal("distributed LCS search never transferred weights")
	}
}

func TestDistributedBaselineOverTCP(t *testing.T) {
	x, stop := startCluster(t, 1, FaultConfig{}, nil)
	defer stop()
	cfg := searchConfig(t, 4, 1)
	cfg.Matcher = nil
	cfg.Executor = x
	tr, err := nas.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scheme != "baseline" {
		t.Fatalf("scheme = %q", tr.Scheme)
	}
	for _, r := range tr.Records {
		if r.TransferCopied != 0 {
			t.Fatal("baseline must not transfer")
		}
	}
}

// TestNewExecutorClaimsCoordinator: candidate IDs are per search, so one
// coordinator serves one search.
func TestNewExecutorClaimsCoordinator(t *testing.T) {
	c := NewCoordinator()
	defer c.Shutdown()
	if _, err := NewExecutor(c); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExecutor(c); err == nil {
		t.Fatal("a second executor on one coordinator must fail")
	}
}
