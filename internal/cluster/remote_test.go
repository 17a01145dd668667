package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"swtnas/internal/checkpoint"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/resilience"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// fastRetries is a FaultConfig scaled to test time.
func fastRetries(attempts int) FaultConfig {
	return FaultConfig{
		HeartbeatTimeout: 2 * time.Second,
		MonitorInterval:  5 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      attempts,
	}
}

// runRemote runs cfg through an Executor on a fresh n-worker cluster.
func runRemote(t *testing.T, cfg nas.Config, n int, fc FaultConfig, setup func(*Worker)) (*trace.Trace, error) {
	t.Helper()
	x, stop := startCluster(t, n, fc, setup)
	defer stop()
	cfg.Executor = x
	return nas.Run(context.Background(), cfg)
}

// TestRemoteMatchesLocal: a seeded search with one outstanding task over TCP
// workers produces the trace of the in-process search with one evaluator —
// same candidates, parents, params, copied layers and score bits — in both
// dtypes, and stores checkpoints of the same size.
func TestRemoteMatchesLocal(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		local := searchConfig(t, 12, 1)
		local.DType = dt
		want, err := nas.Run(context.Background(), local)
		if err != nil {
			t.Fatal(err)
		}
		remote := searchConfig(t, 12, 1)
		remote.DType = dt
		got, err := runRemote(t, remote, 2, FaultConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, want, got, dt.String())
		for i := range want.Records {
			if a, b := want.Records[i].CheckpointBytes, got.Records[i].CheckpointBytes; a != b {
				t.Fatalf("%s: candidate %d checkpoint %d bytes locally, %d remotely", dt, i, a, b)
			}
		}
	}
}

// cutRemote runs a journaled remote search and cancels it once k candidates
// are journaled, like a coordinator killed mid-search; k < 0 runs it to the
// end. The journal and the store directory stay behind for resume.
func cutRemote(t *testing.T, cfg nas.Config, path string, k int, setup func(*Worker)) *trace.Trace {
	t.Helper()
	j, err := resilience.Create(path, resilience.Header{App: cfg.App.Name, Budget: cfg.Budget})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg.Journal = j
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(nas.Result) {
		if k--; k == 0 {
			cancel()
		}
	}
	x, stop := startCluster(t, 2, fastRetries(2), setup)
	defer stop()
	cfg.Executor = x
	tr, err := nas.Run(ctx, cfg)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	return tr
}

// resumeRemote finishes a cut search from its journal on a new cluster.
func resumeRemote(t *testing.T, cfg nas.Config, path string, setup func(*Worker)) *trace.Trace {
	t.Helper()
	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg.Journal, cfg.Resume = j, rec
	tr, err := runRemote(t, cfg, 2, fastRetries(2), setup)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRemoteResumeBitIdentical: a journaled remote search on a
// content-addressed disk store with top-K GC, interrupted after candidate k
// and resumed from its journal on a new cluster, reproduces the
// uninterrupted remote trace.
func TestRemoteResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	config := func(name string) nas.Config {
		cfg := searchConfig(t, 10, 1)
		store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, name+".blobs"))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store, cfg.RetainTopK = store, 2
		return cfg
	}
	full := cutRemote(t, config("full"), filepath.Join(dir, "full.swtj"), -1, nil)
	for _, k := range []int{3, 7} {
		name := fmt.Sprintf("cut-%d", k)
		path := filepath.Join(dir, name+".swtj")
		if part := cutRemote(t, config(name), path, k, nil); len(part.Records) != k {
			t.Fatalf("k=%d: cut run completed %d candidates", k, len(part.Records))
		}
		recordsEqual(t, full, resumeRemote(t, config(name), path, nil), name)
	}
}

// failCandidate makes every worker fail candidate id on every attempt.
func failCandidate(id int) func(*Worker) {
	return func(w *Worker) {
		w.ExecuteHook = func(t RPCTask) (RPCResult, error) {
			if t.ID == id {
				return RPCResult{ID: t.ID, WorkerID: w.ID, Err: "injected persistent failure"}, nil
			}
			return w.Execute(t), nil
		}
	}
}

// TestRemoteRetriesExhaustedBecomesFailedRecord: a candidate that fails on
// every attempt becomes one Failed record; the search still completes its
// budget, and resuming across the journaled failure reproduces the trace.
func TestRemoteRetriesExhaustedBecomesFailedRecord(t *testing.T) {
	dir := t.TempDir()
	const failing = 2
	full := cutRemote(t, searchConfig(t, 8, 1), filepath.Join(dir, "full.swtj"), -1, failCandidate(failing))
	if len(full.Records) != 8 {
		t.Fatalf("records = %d, want the full budget of 8", len(full.Records))
	}
	for _, r := range full.Records {
		if r.Failed != (r.ID == failing) {
			t.Fatalf("candidate %d failed = %v (%s)", r.ID, r.Failed, r.FailReason)
		}
	}
	path := filepath.Join(dir, "cut.swtj")
	cutRemote(t, searchConfig(t, 8, 1), path, 5, failCandidate(failing))
	recordsEqual(t, full, resumeRemote(t, searchConfig(t, 8, 1), path, failCandidate(failing)), "resumed")
}

// tamper rewrites an encoded checkpoint with edit applied.
func tamper(t *testing.T, blob []byte, edit func(*checkpoint.Model)) []byte {
	m, err := checkpoint.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteRejectsMismatchedCheckpoint: a worker whose first answer for a
// candidate carries another architecture's checkpoint, or one whose shape
// sequence the architecture does not build, gets that result rejected as a
// task error and retried. Nothing it sent is stored, and the search matches
// the in-process one.
func TestRemoteRejectsMismatchedCheckpoint(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := obs.Take()

	want, err := nas.Run(context.Background(), searchConfig(t, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := searchConfig(t, 6, 1)
	attempts := map[int]int{} // one worker: the hook never runs concurrently
	got, err := runRemote(t, cfg, 1, fastRetries(3), func(w *Worker) {
		w.ExecuteHook = func(task RPCTask) (RPCResult, error) {
			res := w.Execute(task)
			attempts[task.ID]++
			switch {
			case attempts[task.ID] > 1:
			case task.ID == 1:
				res.Checkpoint = tamper(t, res.Checkpoint, func(m *checkpoint.Model) {
					m.Arch = append([]int{m.Arch[0] + 1}, m.Arch[1:]...)
				})
			case task.ID == 3:
				res.Checkpoint = tamper(t, res.Checkpoint, func(m *checkpoint.Model) {
					m.Groups = m.Groups[:len(m.Groups)-1]
				})
			}
			return res, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.Take().Delta(before).Counters["cluster.results.rejected"]; n != 2 {
		t.Fatalf("rejected %d results, want 2", n)
	}
	recordsEqual(t, want, got, "remote")
	for _, r := range got.Records {
		m, err := cfg.Store.Load(nas.CandidateID(r.ID))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.Arch, r.Arch) || fmt.Sprint(m.ShapeSeq()) != fmt.Sprint(r.ShapeSeq) {
			t.Fatalf("candidate %d stored arch %v shapes %v, record has %v %v", r.ID, m.Arch, m.ShapeSeq(), r.Arch, r.ShapeSeq)
		}
	}
}

// FuzzResultIntake feeds arbitrary checkpoint bytes through the executor's
// result check, the gate network bytes pass before entering the store: it
// must never panic, never store anything, and accept only a checkpoint of
// the task's architecture.
func FuzzResultIntake(f *testing.F) {
	arch := []int{0, 0, 0, 0, 0, 0, 0, 0}
	good := (&Worker{ID: "w"}).Execute(RPCTask{ID: 0, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16, Arch: arch, Seed: 5})
	if good.Err != "" {
		f.Fatal(good.Err)
	}
	f.Add(good.Checkpoint, good.Params)
	f.Add(good.Checkpoint[:len(good.Checkpoint)/2], good.Params)
	f.Add([]byte("SWTC garbage"), 1)

	c := NewCoordinator()
	defer c.Shutdown()
	x, err := NewExecutor(c)
	if err != nil {
		f.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	x.pending[0] = &remoteTask{
		task:      nas.Task{ID: 0, Arch: arch, ParentID: -1, Seed: 5},
		eval:      &nas.Evaluator{App: tinyApp(f), Store: store},
		out:       make(chan nas.Result, 1),
		stopWatch: func() bool { return true },
	}
	f.Fuzz(func(t *testing.T, blob []byte, params int) {
		err := x.check(RPCResult{ID: 0, Params: params, Checkpoint: blob})
		if ids, _ := store.List(); len(ids) != 0 {
			t.Fatalf("result intake stored %v", ids)
		}
		if err != nil {
			return
		}
		m, derr := checkpoint.Decode(bytes.NewReader(blob))
		if derr != nil || !slices.Equal(m.Arch, arch) {
			t.Fatalf("accepted a checkpoint that does not decode to the task's arch (%v)", derr)
		}
	})
}
