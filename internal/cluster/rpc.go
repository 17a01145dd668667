// Package cluster runs candidate evaluations on TCP-distributed workers over
// net/rpc, the stand-in for DeepHyper's multi-node Ray/MPI/Balsam backends
// (the paper's Figure 6 scheduler/evaluator split). A Coordinator queues
// tasks and hardens their execution against worker failure (heartbeats,
// quarantine, requeue with backoff, speculative re-execution); Workers
// evaluate them with the in-process nas.Evaluator; and an Executor plugs the
// coordinator into nas.Run, so a distributed search is the same search loop
// as a local one.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/sim"
	"swtnas/internal/tensor"
)

// Cluster telemetry (internal/obs, disabled by default): per-RPC round-trip
// latency as seen by workers (includes NextTask's queue-blocking time, the
// worker-idle signal), call/error counts, dial retries, the local execution
// time of each shipped candidate, and the coordinator's fault-tolerance
// decisions (requeues, quarantines, re-admissions, exhausted tasks).
// Coordinator-side RPC traffic is additionally labeled per worker id (see
// obs.Labeled) so requeue/quarantine decisions are attributable.
var (
	mRPCSeconds  = obs.GetHistogram("cluster.rpc.seconds", obs.DurationBuckets)
	mRPCCalls    = obs.GetCounter("cluster.rpc.calls")
	mRPCErrors   = obs.GetCounter("cluster.rpc.errors")
	mRPCRetries  = obs.GetCounter("cluster.rpc.retries")
	mExecSeconds = obs.GetHistogram("cluster.exec.seconds", obs.DurationBuckets)

	mTasksRequeued    = obs.GetCounter("cluster.tasks.requeued")
	mTasksFailed      = obs.GetCounter("cluster.tasks.failed")
	mResultsDuplicate = obs.GetCounter("cluster.results.duplicate")
	mResultsRejected  = obs.GetCounter("cluster.results.rejected")
	mQuarantined      = obs.GetCounter("cluster.workers.quarantined")
	mReadmitted       = obs.GetCounter("cluster.workers.readmitted")
	mInflightGauge    = obs.GetGauge("cluster.tasks.inflight")
	mHeartbeats       = obs.GetCounter("cluster.heartbeats")
	mSpeculated       = obs.GetCounter("cluster.tasks.speculated")
	mSpeculationWon   = obs.GetCounter("cluster.speculation.won")
)

// Worker.Run dial schedule; vars so tests can shrink the timing.
var (
	dialAttempts = 5
	dialDelay    = 100 * time.Millisecond
)

// dialRetry dials the coordinator, retrying on failure: workers commonly
// start before the coordinator finishes binding its listener.
func dialRetry(addr string) (*rpc.Client, error) {
	var lastErr error
	for i := 0; i < dialAttempts; i++ {
		if i > 0 {
			mRPCRetries.Inc()
			time.Sleep(dialDelay)
		}
		client, err := rpc.Dial("tcp", addr)
		if err == nil {
			return client, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// call wraps client.Call with round-trip telemetry.
func call(client *rpc.Client, method string, args, reply any) error {
	t := mRPCSeconds.Start()
	err := client.Call(method, args, reply)
	mRPCCalls.Inc()
	if err != nil {
		mRPCErrors.Inc()
		return err
	}
	t.Stop()
	return nil
}

// RPCTask ships one candidate evaluation to a remote worker. Tasks are
// self-contained: the worker regenerates the (deterministic) dataset from
// App/DataSeed and receives the provider checkpoint inline, so workers need
// no shared file system — the role the paper's parallel FS plays is taken by
// the search's checkpoint store on the coordinator side.
type RPCTask struct {
	// Shutdown tells the worker to exit its task loop.
	Shutdown bool
	// ID is the candidate number.
	ID int
	// App names the application; DataSeed / TrainN / ValN reproduce its
	// dataset on the worker.
	App          string
	DataSeed     int64
	TrainN, ValN int
	Arch         []int
	Seed         int64
	Matcher      string // "", "LP", "LCS"
	// ParentID and Parent are the provider candidate and its encoded
	// checkpoint; Parent is nil for training from scratch.
	ParentID int
	Parent   []byte
	// DType selects the worker-side training element type ("", "f64" or
	// "f32", the tensor.ParseDType spellings); the worker's nas.Evaluator
	// builds and weight-transfers in float64, then trains natively in it.
	DType string
	// DeadlineMillis, when positive, bounds the worker-side evaluation: the
	// worker trains under a context with this timeout and reports a task
	// error when it expires (the coordinator then retries or fails the
	// candidate). The Executor sets it from FaultConfig.TaskDeadline.
	DeadlineMillis int64
}

// RPCResult returns a scored candidate to the coordinator.
type RPCResult struct {
	ID          int
	WorkerID    string
	Score       float64
	Params      int
	Copied      int
	TrainMillis float64
	// EvalMillis is the worker's end-to-end evaluation time (build,
	// transfer, training and checkpointing).
	EvalMillis float64
	Checkpoint []byte
	Err        string
	// Failed marks a terminal failure emitted by the coordinator after the
	// task exhausted its retry budget; plain worker errors (Err set,
	// Failed false) are retried internally and never reach Results.
	Failed bool
	// Attempts counts the executions the task consumed (retries included).
	Attempts int
}

// FaultConfig tunes the coordinator's failure detection and retry policy.
// The zero value selects the defaults noted on each field; tests shrink the
// timings to milliseconds.
type FaultConfig struct {
	// HeartbeatTimeout quarantines a worker that has been silent (no
	// NextTask/Submit/Heartbeat) for longer than this; its in-flight tasks
	// requeue to healthy workers. A quarantined worker that heartbeats
	// again is re-admitted. Default 15s.
	HeartbeatTimeout time.Duration
	// TaskDeadline requeues a task that has been running on one worker for
	// longer than this (stall detection, independent of heartbeats).
	// 0 disables per-task deadlines.
	TaskDeadline time.Duration
	// MaxAttempts bounds the executions one task may consume before the
	// coordinator surfaces it as a Failed result instead of retrying.
	// Default 3.
	MaxAttempts int
	// RetryBackoff delays a requeued task's re-dispatch, doubling per
	// consumed attempt. Default 100ms.
	RetryBackoff time.Duration
	// MonitorInterval is the failure-detector scan period. Default 250ms.
	MonitorInterval time.Duration
	// SpeculativeQuantile enables speculative re-execution: once enough
	// results are in, a task whose elapsed runtime exceeds
	// SpeculationFactor times this quantile of recently completed
	// evaluation latencies gets a backup attempt on the next free worker —
	// first result wins, the loser's submission is dropped by the existing
	// duplicate scrubbing. 0 disables speculation (the default); the
	// paper-style straggler mitigation uses 0.9.
	SpeculativeQuantile float64
	// SpeculationFactor scales the quantile into the straggler threshold.
	// Default 1.5.
	SpeculationFactor float64
	// SpeculationMinSamples is how many completed evaluations the latency
	// window needs before speculation engages. Default 8.
	SpeculationMinSamples int
	// OnEvent, when set, observes every fault-tolerance decision the
	// coordinator takes — requeues, terminal failures, quarantines and
	// re-admissions — as nas.FaultEvent values. Events are delivered outside
	// the coordinator's lock, in decision order, from whichever goroutine
	// took the decision; the callback must be safe for concurrent use and
	// must not block (it runs on the RPC and failure-detector paths).
	OnEvent func(nas.FaultEvent)
}

func (f FaultConfig) withDefaults() FaultConfig {
	if f.HeartbeatTimeout <= 0 {
		f.HeartbeatTimeout = 15 * time.Second
	}
	if f.MaxAttempts <= 0 {
		f.MaxAttempts = 3
	}
	if f.RetryBackoff <= 0 {
		f.RetryBackoff = 100 * time.Millisecond
	}
	if f.MonitorInterval <= 0 {
		f.MonitorInterval = 250 * time.Millisecond
	}
	if f.SpeculationFactor <= 0 {
		f.SpeculationFactor = 1.5
	}
	if f.SpeculationMinSamples <= 0 {
		f.SpeculationMinSamples = 8
	}
	return f
}

// inflightTask is one task assigned to a worker and not yet resolved.
type inflightTask struct {
	task     RPCTask
	worker   string
	started  time.Time
	attempts int // executions consumed, including this one
}

// queuedTask is a task waiting for a worker (attempts already consumed).
// speculative marks a backup copy racing a still-running original; it is
// tracked outside the retry budget.
type queuedTask struct {
	task        RPCTask
	attempts    int
	speculative bool
}

// delayedTask is a requeued task serving its retry backoff.
type delayedTask struct {
	task     RPCTask
	attempts int
	readyAt  time.Time
}

// workerState is the coordinator's liveness view of one worker.
type workerState struct {
	lastBeat    time.Time
	quarantined bool
}

// Coordinator is the scheduler-side RPC endpoint: workers poll NextTask,
// push Submit, and report liveness via Heartbeat. It is the stand-in for
// DeepHyper's Ray head node, hardened for worker preemption: tasks whose
// worker crashes or stalls are requeued (bounded attempts with backoff) and
// dead workers are quarantined until they heartbeat again.
type Coordinator struct {
	cfg FaultConfig

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []queuedTask
	delayed  []delayedTask
	inflight map[int]*inflightTask
	workers  map[string]*workerState
	done     map[int]bool
	shutdown bool

	// Speculative re-execution state: a sliding window of completed
	// evaluation latencies (the threshold base), backup attempts in flight
	// (kept apart from inflight so the original's tracking survives), and
	// the tasks that already consumed their one backup.
	latencies    []time.Duration
	specInflight map[int]*inflightTask
	speculated   map[int]bool

	monitorOnce sync.Once
	stopMonitor chan struct{}

	results chan RPCResult

	// exec is the Executor serving this coordinator's one search; it
	// validates each returned checkpoint before the result is accepted.
	exec *Executor

	// pending buffers fault events recorded under mu; emitMu serializes
	// their delivery to cfg.OnEvent so observers see decision order even
	// when RPC goroutines and the failure detector flush concurrently.
	pending []nas.FaultEvent
	emitMu  sync.Mutex
}

// emitLocked queues a fault event for delivery; callers hold c.mu and must
// call flushEvents after unlocking.
func (c *Coordinator) emitLocked(ev nas.FaultEvent) {
	if c.cfg.OnEvent != nil {
		c.pending = append(c.pending, ev)
	}
}

// flushEvents delivers queued fault events outside c.mu, preserving the
// order the decisions were taken in.
func (c *Coordinator) flushEvents() {
	if c.cfg.OnEvent == nil {
		return
	}
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	c.mu.Lock()
	evs := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, ev := range evs {
		c.cfg.OnEvent(ev)
	}
}

// NewCoordinator creates a coordinator with the default fault policy.
func NewCoordinator() *Coordinator { return NewCoordinatorWith(FaultConfig{}) }

// NewCoordinatorWith creates a coordinator with an explicit fault policy.
func NewCoordinatorWith(cfg FaultConfig) *Coordinator {
	c := &Coordinator{
		cfg:          cfg.withDefaults(),
		inflight:     map[int]*inflightTask{},
		workers:      map[string]*workerState{},
		done:         map[int]bool{},
		specInflight: map[int]*inflightTask{},
		speculated:   map[int]bool{},
		stopMonitor:  make(chan struct{}),
		results:      make(chan RPCResult, 64),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Enqueue adds a task for the next free worker and starts the failure
// detector on first use.
func (c *Coordinator) Enqueue(t RPCTask) {
	c.monitorOnce.Do(func() { go c.monitor() })
	c.mu.Lock()
	c.queue = append(c.queue, queuedTask{task: t, attempts: 0})
	c.mu.Unlock()
	c.cond.Signal()
}

// Results streams terminal task outcomes: one per enqueued task, either a
// worker's successful submission or a coordinator-synthesized Failed result
// after the retry budget is exhausted. Duplicate submissions (a stalled
// worker finishing after its task was requeued and re-run) are dropped.
func (c *Coordinator) Results() <-chan RPCResult { return c.results }

// Shutdown makes every pending and future NextTask return a shutdown task
// and stops the failure detector.
func (c *Coordinator) Shutdown() {
	c.monitorOnce.Do(func() { go c.monitor() }) // ensure stopMonitor has a consumer
	c.mu.Lock()
	if !c.shutdown {
		c.shutdown = true
		close(c.stopMonitor)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// forget drops a task its search no longer waits for: queued copies are
// scrubbed, and a running copy's late result is discarded as a duplicate.
func (c *Coordinator) forget(id int) {
	c.mu.Lock()
	c.done[id] = true
	c.scrubLocked(id)
	c.mu.Unlock()
}

// beatLocked records worker liveness, re-admitting it from quarantine.
// Callers hold c.mu.
func (c *Coordinator) beatLocked(workerID string) {
	ws := c.workers[workerID]
	if ws == nil {
		ws = &workerState{}
		c.workers[workerID] = ws
	}
	ws.lastBeat = time.Now()
	if ws.quarantined {
		ws.quarantined = false
		mReadmitted.Inc()
		obs.GetCounter(obs.Labeled("cluster.coord.readmitted", "worker", workerID)).Inc()
		c.emitLocked(nas.FaultEvent{Kind: nas.FaultReadmit, Worker: workerID, CandidateID: -1})
	}
}

// requeueLocked returns a resolved-but-unfinished task to the schedule: a
// retry with backoff while attempts remain, a synthesized Failed result
// otherwise. It returns the terminal result to send (nil for a retry);
// callers hold c.mu and must send after unlocking.
func (c *Coordinator) requeueLocked(t RPCTask, attempts int, reason string) *RPCResult {
	if c.done[t.ID] {
		return nil
	}
	if attempts >= c.cfg.MaxAttempts {
		c.done[t.ID] = true
		mTasksFailed.Inc()
		c.emitLocked(nas.FaultEvent{Kind: nas.FaultFailed, CandidateID: t.ID, Reason: reason, Attempt: attempts})
		return &RPCResult{ID: t.ID, WorkerID: "coordinator", Err: reason, Failed: true, Attempts: attempts}
	}
	backoff := c.cfg.RetryBackoff << (attempts - 1)
	c.delayed = append(c.delayed, delayedTask{task: t, attempts: attempts, readyAt: time.Now().Add(backoff)})
	mTasksRequeued.Inc()
	c.emitLocked(nas.FaultEvent{Kind: nas.FaultRequeue, CandidateID: t.ID, Reason: reason, Attempt: attempts})
	return nil
}

// monitor is the failure detector: it quarantines silent workers (requeuing
// their in-flight tasks), enforces per-task deadlines, and moves requeued
// tasks whose backoff elapsed back into the dispatch queue.
func (c *Coordinator) monitor() {
	ticker := time.NewTicker(c.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var failed []RPCResult
		c.mu.Lock()
		// Quarantine workers that stopped heartbeating and reclaim their
		// in-flight tasks.
		for id, ws := range c.workers {
			if ws.quarantined || now.Sub(ws.lastBeat) <= c.cfg.HeartbeatTimeout {
				continue
			}
			ws.quarantined = true
			mQuarantined.Inc()
			obs.GetCounter(obs.Labeled("cluster.coord.quarantined", "worker", id)).Inc()
			c.emitLocked(nas.FaultEvent{Kind: nas.FaultQuarantine, Worker: id, CandidateID: -1, Reason: "no heartbeat"})
			for tid, ift := range c.inflight {
				if ift.worker != id {
					continue
				}
				delete(c.inflight, tid)
				if res := c.requeueLocked(ift.task, ift.attempts, fmt.Sprintf("worker %s presumed dead (no heartbeat)", id)); res != nil {
					failed = append(failed, *res)
				}
			}
			// A quarantined worker's backup attempts are simply dropped:
			// the originals are still tracked, so nothing is lost.
			for tid, spec := range c.specInflight {
				if spec.worker == id {
					delete(c.specInflight, tid)
				}
			}
		}
		// Per-task deadline: a task stuck on one worker is requeued even if
		// the worker still heartbeats (stalled evaluation).
		if c.cfg.TaskDeadline > 0 {
			for tid, ift := range c.inflight {
				if now.Sub(ift.started) <= c.cfg.TaskDeadline {
					continue
				}
				delete(c.inflight, tid)
				if res := c.requeueLocked(ift.task, ift.attempts, fmt.Sprintf("task deadline %s exceeded on worker %s", c.cfg.TaskDeadline, ift.worker)); res != nil {
					failed = append(failed, *res)
				}
			}
		}
		// Speculative re-execution: once the latency window is warm, any
		// task running past the calibrated quantile threshold gets one
		// backup attempt, queued ahead of regular work so the next free
		// worker picks it up (first result wins via duplicate scrubbing).
		speculated := false
		if c.cfg.SpeculativeQuantile > 0 && len(c.latencies) >= c.cfg.SpeculationMinSamples {
			threshold := time.Duration(float64(sim.DurationQuantile(c.latencies, c.cfg.SpeculativeQuantile)) * c.cfg.SpeculationFactor)
			if threshold > 0 {
				for tid, ift := range c.inflight {
					if c.done[tid] || c.speculated[tid] || now.Sub(ift.started) <= threshold {
						continue
					}
					c.speculated[tid] = true
					mSpeculated.Inc()
					c.queue = append([]queuedTask{{task: ift.task, attempts: ift.attempts, speculative: true}}, c.queue...)
					c.emitLocked(nas.FaultEvent{
						Kind:        nas.FaultSpeculate,
						Worker:      ift.worker,
						CandidateID: tid,
						Reason:      fmt.Sprintf("runtime exceeded %s (q%.2f x %.1f of %d samples)", threshold.Round(time.Millisecond), c.cfg.SpeculativeQuantile, c.cfg.SpeculationFactor, len(c.latencies)),
						Attempt:     ift.attempts,
					})
					speculated = true
				}
			}
		}
		// Release requeued tasks whose backoff elapsed.
		released := speculated
		keep := c.delayed[:0]
		for _, d := range c.delayed {
			if !d.readyAt.After(now) {
				c.queue = append(c.queue, queuedTask{task: d.task, attempts: d.attempts})
				released = true
			} else {
				keep = append(keep, d)
			}
		}
		c.delayed = keep
		mInflightGauge.Set(int64(len(c.inflight)))
		c.mu.Unlock()
		c.flushEvents()
		if released {
			c.cond.Broadcast()
		}
		for _, res := range failed {
			c.results <- res
		}
	}
}

// Service is the exported RPC receiver ("Service.NextTask",
// "Service.Submit", "Service.Heartbeat").
type Service struct {
	c *Coordinator
}

// NextTask blocks until a task or shutdown is available. net/rpc runs each
// call on its own goroutine, so blocking here parks only the asking worker.
// Asking for work counts as a heartbeat (and re-admits a quarantined
// worker: if it can ask, it is alive).
func (s *Service) NextTask(workerID string, reply *RPCTask) error {
	c := s.c
	defer c.flushEvents() // after the unlock below (defers run LIFO)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beatLocked(workerID)
	for len(c.queue) == 0 && !c.shutdown {
		c.cond.Wait()
	}
	if len(c.queue) == 0 {
		*reply = RPCTask{Shutdown: true}
		return nil
	}
	qt := c.queue[0]
	c.queue = c.queue[1:]
	ift := &inflightTask{
		task:     qt.task,
		worker:   workerID,
		started:  time.Now(),
		attempts: qt.attempts + 1,
	}
	if qt.speculative {
		// A backup attempt races the original, which stays tracked in
		// inflight; the backup lives outside the retry budget.
		c.specInflight[qt.task.ID] = ift
	} else {
		c.inflight[qt.task.ID] = ift
	}
	c.beatLocked(workerID) // cond.Wait may have parked past the timeout
	mInflightGauge.Set(int64(len(c.inflight)))
	obs.GetCounter(obs.Labeled("cluster.coord.tasks.assigned", "worker", workerID)).Inc()
	*reply = qt.task
	return nil
}

// Heartbeat reports worker liveness; workers send it from a side goroutine
// so multi-minute evaluations do not read as death.
func (s *Service) Heartbeat(workerID string, ack *bool) error {
	c := s.c
	c.mu.Lock()
	c.beatLocked(workerID)
	c.mu.Unlock()
	c.flushEvents()
	mHeartbeats.Inc()
	obs.GetCounter(obs.Labeled("cluster.coord.heartbeats", "worker", workerID)).Inc()
	*ack = true
	return nil
}

// Submit delivers a result to the coordinator. Successful results resolve
// the task (late duplicates from requeued copies are dropped); worker-side
// errors consume an attempt and requeue, failing terminally only once the
// retry budget is spent.
func (s *Service) Submit(res RPCResult, ack *bool) error {
	c := s.c
	*ack = true
	c.mu.Lock()
	x := c.exec
	c.mu.Unlock()
	if x != nil && res.Err == "" {
		// Network bytes enter the search's store here: a checkpoint that
		// does not match its task is a task error, retried like any other.
		if err := x.check(res); err != nil {
			mResultsRejected.Inc()
			res.Err, res.Checkpoint = err.Error(), nil
		}
	}
	var terminal *RPCResult
	c.mu.Lock()
	c.beatLocked(res.WorkerID)
	obs.GetCounter(obs.Labeled("cluster.coord.results", "worker", res.WorkerID)).Inc()
	switch {
	case c.done[res.ID]:
		// The race's loser arriving (a requeued task's original worker, or
		// the slower side of a speculation pair): drop the result, clear
		// its in-flight entry.
		mResultsDuplicate.Inc()
		if spec := c.specInflight[res.ID]; spec != nil && spec.worker == res.WorkerID {
			delete(c.specInflight, res.ID)
		} else if ift := c.inflight[res.ID]; ift != nil && ift.worker == res.WorkerID {
			delete(c.inflight, res.ID)
		}
	case res.Err != "":
		if spec := c.specInflight[res.ID]; spec != nil && spec.worker == res.WorkerID {
			// A failed backup is dropped, not retried: the original still
			// runs and owns the retry budget.
			delete(c.specInflight, res.ID)
		} else if ift := c.inflight[res.ID]; ift != nil && ift.worker == res.WorkerID {
			delete(c.inflight, res.ID)
			terminal = c.requeueLocked(ift.task, ift.attempts, res.Err)
		}
		// Otherwise another attempt is already queued or running; drop.
	default:
		backupWon := false
		if spec := c.specInflight[res.ID]; spec != nil && spec.worker == res.WorkerID {
			backupWon = true
			res.Attempts = spec.attempts
			delete(c.specInflight, res.ID)
			c.recordLatencyLocked(time.Since(spec.started))
		} else if ift := c.inflight[res.ID]; ift != nil {
			res.Attempts = ift.attempts
			delete(c.inflight, res.ID)
			c.recordLatencyLocked(time.Since(ift.started))
		}
		c.scrubLocked(res.ID)
		c.done[res.ID] = true
		if backupWon {
			mSpeculationWon.Inc()
			c.emitLocked(nas.FaultEvent{Kind: nas.FaultSpeculationWon, Worker: res.WorkerID, CandidateID: res.ID, Attempt: res.Attempts})
		}
		r := res
		terminal = &r
	}
	mInflightGauge.Set(int64(len(c.inflight)))
	c.mu.Unlock()
	c.flushEvents()
	if terminal != nil {
		c.results <- *terminal
	}
	return nil
}

// latencyWindow bounds the sliding sample of completed evaluation latencies
// that feeds the speculation threshold.
const latencyWindow = 128

// recordLatencyLocked appends a completed attempt's dispatch-to-result
// latency to the sliding window. Callers hold c.mu.
func (c *Coordinator) recordLatencyLocked(d time.Duration) {
	if c.cfg.SpeculativeQuantile <= 0 {
		return
	}
	c.latencies = append(c.latencies, d)
	if len(c.latencies) > latencyWindow {
		c.latencies = c.latencies[1:]
	}
}

// scrubLocked removes any queued or delayed copy of a resolved task (a
// requeued task whose original worker finished after all, or a speculative
// backup that never dispatched). Callers hold c.mu.
func (c *Coordinator) scrubLocked(id int) {
	keepQ := c.queue[:0]
	for _, qt := range c.queue {
		if qt.task.ID != id {
			keepQ = append(keepQ, qt)
		}
	}
	c.queue = keepQ
	keepD := c.delayed[:0]
	for _, d := range c.delayed {
		if d.task.ID != id {
			keepD = append(keepD, d)
		}
	}
	c.delayed = keepD
}

// Serve registers the coordinator service and accepts connections until the
// listener closes.
func (c *Coordinator) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.Register(&Service{c: c}); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Sentinel errors an ExecuteHook can return to simulate worker failures
// (used by resilience/faultinject; harmless in production workers, which
// never set a hook).
var (
	// ErrCrash makes the worker drop its coordinator connection and stop
	// heartbeating — from the coordinator's view, the process died.
	ErrCrash = errors.New("cluster: injected worker crash")
	// ErrDropResult makes the worker skip Submit for this one task but keep
	// serving (a lost result; the coordinator's deadline reclaims the task).
	ErrDropResult = errors.New("cluster: injected result drop")
)

// Worker executes tasks fetched from a coordinator with the same
// nas.Evaluator an in-process search uses. It caches the evaluator of the
// last task's app, matcher and dtype, so repeated tasks neither regenerate
// the dataset nor convert it to float32 again.
type Worker struct {
	// ID labels the worker in results.
	ID string

	// DType, when non-empty, is the training element type applied to tasks
	// that ship no RPCTask.DType (a coordinator predating the dtype field).
	// Tasks that do name a dtype always win, keeping mixed fleets
	// consistent. See DESIGN.md §14.
	DType string

	// HeartbeatEvery is the liveness-ping period Run uses while connected.
	// 0 selects the 2s default; negative disables heartbeats entirely
	// (tests simulating a silent stall).
	HeartbeatEvery time.Duration

	// ExecuteHook, when set, replaces Execute in Run's task loop. Returning
	// ErrCrash kills the connection and Run; ErrDropResult suppresses the
	// Submit. Any other error aborts Run with it. Fault-injection only.
	ExecuteHook func(RPCTask) (RPCResult, error)

	mu      sync.Mutex
	evalKey string
	eval    *nas.Evaluator
}

// evaluatorFor returns the evaluator for a task's app, dataset, matcher and
// dtype, building it when the task differs from the previous one.
func (w *Worker) evaluatorFor(t RPCTask) (*nas.Evaluator, error) {
	spec := t.DType
	if spec == "" {
		spec = w.DType
	}
	dt, err := tensor.ParseDType(spec)
	if err != nil {
		return nil, err
	}
	m, ok := core.MatcherByName(t.Matcher)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown matcher %q", t.Matcher)
	}
	key := fmt.Sprintf("%s/%d/%d/%d/%s/%s", t.App, t.DataSeed, t.TrainN, t.ValN, t.Matcher, dt)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.evalKey != key {
		app, err := apps.New(t.App, t.DataSeed, apps.Config{Data: data.Config{TrainN: t.TrainN, ValN: t.ValN}})
		if err != nil {
			return nil, err
		}
		w.evalKey, w.eval = key, &nas.Evaluator{App: app, Matcher: m, DType: dt}
	}
	return w.eval, nil
}

// Execute runs one task locally (exported for tests and for embedding the
// worker in-process). The provider goes into, and the candidate's checkpoint
// comes out of, a store that lives for this task only.
func (w *Worker) Execute(t RPCTask) RPCResult {
	defer mExecSeconds.Start().Stop()
	res := RPCResult{ID: t.ID, WorkerID: w.ID}
	if err := w.execute(t, &res); err != nil {
		res.Err = err.Error()
	}
	return res
}

func (w *Worker) execute(t RPCTask, res *RPCResult) error {
	e, err := w.evaluatorFor(t)
	if err != nil {
		return err
	}
	store := checkpoint.NewMemStore()
	task := nas.Task{ID: t.ID, Arch: t.Arch, ParentID: -1, Seed: t.Seed}
	if len(t.Parent) > 0 {
		task.ParentID = t.ParentID
		if err := checkpoint.SaveEncoded(store, nas.CandidateID(t.ParentID), t.Parent); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if t.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	r := e.EvaluateWith(ctx, task, store)
	if r.Err != nil {
		return r.Err
	}
	blob, err := checkpoint.LoadEncoded(store, nas.CandidateID(t.ID))
	if err != nil {
		return err
	}
	res.Score, res.Params, res.Copied, res.Checkpoint = r.Score, r.Params, r.Transfer.Copied, blob
	res.TrainMillis = float64(r.TrainTime) / float64(time.Millisecond)
	res.EvalMillis = float64(r.EvalTime) / float64(time.Millisecond)
	return nil
}

// Run connects to the coordinator (retrying the dial — workers commonly
// start before the coordinator's listener is up) and processes tasks until
// shutdown. A side goroutine heartbeats every HeartbeatEvery so the
// coordinator distinguishes "evaluating a slow candidate" from "dead".
func (w *Worker) Run(addr string) error {
	client, err := dialRetry(addr)
	if err != nil {
		return fmt.Errorf("cluster: worker %s dialing %s: %w", w.ID, addr, err)
	}
	defer client.Close()

	beatEvery := w.HeartbeatEvery
	if beatEvery == 0 {
		beatEvery = 2 * time.Second
	}
	stopBeats := make(chan struct{})
	defer close(stopBeats)
	if beatEvery > 0 {
		go func() {
			ticker := time.NewTicker(beatEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-ticker.C:
					var ack bool
					// Errors here mean the connection died; the task loop
					// will observe the same failure and exit.
					_ = call(client, "Service.Heartbeat", w.ID, &ack)
				}
			}
		}()
	}

	for {
		var task RPCTask
		if err := call(client, "Service.NextTask", w.ID, &task); err != nil {
			return fmt.Errorf("cluster: worker %s fetching task: %w", w.ID, err)
		}
		if task.Shutdown {
			return nil
		}
		var res RPCResult
		if w.ExecuteHook != nil {
			var err error
			res, err = w.ExecuteHook(task)
			switch {
			case errors.Is(err, ErrCrash):
				return nil // drop connection + heartbeats: simulated death
			case errors.Is(err, ErrDropResult):
				continue // lose the result, keep serving
			case err != nil:
				return fmt.Errorf("cluster: worker %s execute hook: %w", w.ID, err)
			}
		} else {
			res = w.Execute(task)
		}
		var ack bool
		if err := call(client, "Service.Submit", res, &ack); err != nil {
			return fmt.Errorf("cluster: worker %s submitting result: %w", w.ID, err)
		}
	}
}
