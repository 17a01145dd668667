package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/nas"
)

// Executor runs a search's candidate evaluations on the TCP workers of one
// Coordinator. It implements nas.Executor, so a distributed search is nas.Run
// with Config.Executor set, with journaling, resume, the proxy filter,
// checkpoint GC and Pareto search as in-process.
//
// Each task ships with its provider's encoded checkpoint, read from the
// search's store. One goroutine routes every terminal result back to its
// task, first saving the returned checkpoint into the store under
// nas.CandidateID. A candidate whose retries are exhausted comes back
// wrapping nas.ErrRetriesExhausted, which nas.Run records as Failed.
//
// A Coordinator serves one search, because candidate IDs are per search. The
// Executor stops when the Coordinator shuts down; tasks still pending then
// fail.
type Executor struct {
	c *Coordinator

	mu      sync.Mutex
	pending map[int]*remoteTask
	stopped bool
}

// remoteTask is one submitted task awaiting its terminal result.
type remoteTask struct {
	task      nas.Task
	eval      *nas.Evaluator
	out       chan<- nas.Result
	stopWatch func() bool // detaches the context watcher
}

// errShutdown fails the tasks still pending when the coordinator shuts down.
var errShutdown = errors.New("cluster: coordinator shut down")

// NewExecutor attaches an Executor to c. It fails if c already serves a
// search.
func NewExecutor(c *Coordinator) (*Executor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.exec != nil {
		return nil, errors.New("cluster: coordinator already serves a search; start a new coordinator per search")
	}
	c.exec = &Executor{c: c, pending: map[int]*remoteTask{}}
	go c.exec.route()
	return c.exec, nil
}

// Submit ships one candidate to the workers. Part of nas.Executor.
func (x *Executor) Submit(ctx context.Context, t nas.Task, e *nas.Evaluator, out chan<- nas.Result) {
	rt, err := x.rpcTask(t, e)
	x.mu.Lock()
	if err == nil && x.stopped {
		err = errShutdown
	}
	if err != nil {
		x.mu.Unlock()
		out <- nas.Result{ID: t.ID, Arch: t.Arch, ParentID: t.ParentID, Err: err}
		return
	}
	// Registered before Enqueue, so a fast result always finds its task.
	x.pending[t.ID] = &remoteTask{task: t, eval: e, out: out,
		stopWatch: context.AfterFunc(ctx, func() { x.abandon(t.ID, ctx.Err()) })}
	x.mu.Unlock()
	x.c.Enqueue(rt)
}

// rpcTask renders a search task for the wire.
func (x *Executor) rpcTask(t nas.Task, e *nas.Evaluator) (RPCTask, error) {
	rt := RPCTask{
		ID: t.ID, App: e.App.Name, DataSeed: e.App.Seed, TrainN: e.App.Data.TrainN, ValN: e.App.Data.ValN,
		Arch: t.Arch, Seed: t.Seed, ParentID: t.ParentID, DType: e.DType.String(),
		DeadlineMillis: int64(x.c.cfg.TaskDeadline / time.Millisecond),
	}
	if e.Matcher == nil {
		return rt, nil
	}
	rt.Matcher = e.Matcher.Name()
	if m, _ := core.MatcherByName(rt.Matcher); m == nil {
		return rt, fmt.Errorf("cluster: matcher %q cannot run on remote workers", rt.Matcher)
	}
	if t.ParentID >= 0 {
		blob, err := checkpoint.LoadEncoded(e.Store, nas.CandidateID(t.ParentID))
		if err != nil {
			return rt, fmt.Errorf("cluster: loading provider %d: %w", t.ParentID, err)
		}
		rt.Parent = blob
	}
	return rt, nil
}

// take removes and returns the pending task id, nil if it already resolved.
func (x *Executor) take(id int) *remoteTask {
	x.mu.Lock()
	defer x.mu.Unlock()
	rt := x.pending[id]
	delete(x.pending, id)
	return rt
}

// abandon resolves a task whose search context ended: the coordinator drops
// it, and the scheduler gets the context error without waiting for a remote
// evaluation that no longer matters.
func (x *Executor) abandon(id int, err error) {
	if rt := x.take(id); rt != nil {
		x.c.forget(id)
		rt.out <- nas.Result{ID: id, Arch: rt.task.Arch, ParentID: rt.task.ParentID, Err: err}
	}
}

// route delivers each terminal result to its task until the coordinator
// shuts down, then fails whatever is still pending.
func (x *Executor) route() {
	for {
		select {
		case r := <-x.c.Results():
			if rt := x.take(r.ID); rt != nil {
				rt.stopWatch()
				rt.out <- x.result(rt, r)
			}
		case <-x.c.stopMonitor:
			x.mu.Lock()
			x.stopped = true
			pending := x.pending
			x.pending = nil
			x.mu.Unlock()
			for _, rt := range pending {
				rt.stopWatch()
				rt.out <- nas.Result{ID: rt.task.ID, Arch: rt.task.Arch, ParentID: rt.task.ParentID, Err: errShutdown}
			}
			return
		}
	}
}

// result turns a terminal RPCResult into the search's Result, storing the
// checkpoint that check validated.
func (x *Executor) result(rt *remoteTask, r RPCResult) nas.Result {
	t := rt.task
	res := nas.Result{ID: t.ID, Arch: t.Arch, ParentID: t.ParentID}
	if r.Failed {
		res.Err = fmt.Errorf("%w after %d attempts: %s", nas.ErrRetriesExhausted, r.Attempts, r.Err)
		return res
	}
	m, err := checkpoint.Decode(bytes.NewReader(r.Checkpoint))
	if err == nil {
		res.CheckpointBytes, err = rt.eval.Store.Save(nas.CandidateID(t.ID), m)
	}
	if err != nil {
		res.Err = fmt.Errorf("cluster: storing candidate %d: %w", t.ID, err)
		return res
	}
	res.Score, res.Params, res.ShapeSeq = r.Score, r.Params, m.ShapeSeq()
	res.Transfer = core.Stats{Copied: r.Copied}
	res.TrainTime = time.Duration(r.TrainMillis * float64(time.Millisecond))
	res.EvalTime = time.Duration(r.EvalMillis * float64(time.Millisecond))
	if !t.IssuedAt.IsZero() {
		res.QueueWait = max(0, time.Since(t.IssuedAt)-res.EvalTime)
	}
	return res
}

// check validates a worker's successful result before the coordinator
// accepts it: the checkpoint must decode, carry the task's architecture and
// match the network Space.Build makes of it group for group and tensor for
// tensor, with the same parameter count. Results of tasks no longer pending
// pass, since the coordinator drops them as duplicates.
func (x *Executor) check(r RPCResult) error {
	x.mu.Lock()
	rt := x.pending[r.ID]
	x.mu.Unlock()
	if rt == nil {
		return nil
	}
	t := rt.task
	m, err := checkpoint.Decode(bytes.NewReader(r.Checkpoint))
	if err != nil {
		return fmt.Errorf("cluster: candidate %d: returned checkpoint: %w", t.ID, err)
	}
	if !slices.Equal(m.Arch, []int(t.Arch)) {
		return fmt.Errorf("cluster: candidate %d: returned checkpoint has arch %v", t.ID, m.Arch)
	}
	net, err := rt.eval.App.Space.Build(t.Arch, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return fmt.Errorf("cluster: candidate %d: %w", t.ID, err)
	}
	if got := m.ShapeSeq(); !slices.EqualFunc(got, core.ShapeSeqOfNetwork(net), slices.Equal[[]int]) {
		return fmt.Errorf("cluster: candidate %d: returned checkpoint has shapes %v", t.ID, got)
	}
	if err := m.RestoreInto(net); err != nil {
		return fmt.Errorf("cluster: candidate %d: %w", t.ID, err)
	}
	if r.Params != net.ParamCount() {
		return fmt.Errorf("cluster: candidate %d: result reports %d params, arch has %d", t.ID, r.Params, net.ParamCount())
	}
	return nil
}
