// Package sim is the discrete-event cluster simulator: it replays a
// candidate-estimation phase on a configurable number of virtual GPUs with a
// shared-file-system cost model, so scheduler and storage changes can be
// tested at fleet scale before they are built (the paper's Fig 10 study,
// since this host has no GPUs).
//
// The package has three layers:
//
//   - Simulate (this file): the base engine — FCFS dispatch to free GPUs,
//     serialized scheduler latency, a shared-FS model for checkpoint I/O.
//     NodeTypeA and NodeTypeB are the paper's Table II machines.
//   - SimulateFleet (fleet.go): the base engine plus an intra-node core
//     model (SWTNAS_WORKERS-aware kernel-parallel speedup), an analytic
//     heartbeat-monitor load on the coordinator, straggler injection, and
//     speculative re-execution — first-result-wins backups for tasks that
//     overrun a quantile of the workload's latency distribution.
//   - CostModel (cost.go) and Replay (replay.go): empirical cost samplers
//     calibrated from real obs snapshots, and trace replay that validates
//     predicted against measured makespan.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// FSModel is the shared-file-system cost model. An operation costs
// PerOpLatency plus bytes/bandwidth. With Serialized set, all checkpoint
// I/O queues on a single FCFS resource (a saturated parallel FS); otherwise
// each operation only occupies its own GPU's timeline (a parallel FS with
// headroom, where slow effective bandwidth — e.g. the paper's ~4 s Ray
// object-store reads for NT3's 40 MB checkpoints — shows up as per-task
// overhead rather than contention).
type FSModel struct {
	// WriteBandwidth and ReadBandwidth are in bytes/second.
	WriteBandwidth, ReadBandwidth float64
	// PerOpLatency is the fixed cost of each open/transfer round trip.
	PerOpLatency time.Duration
	// Serialized queues all operations on one FCFS resource.
	Serialized bool
}

// DefaultFS is a modest parallel-FS configuration.
func DefaultFS() FSModel {
	return FSModel{
		WriteBandwidth: 4e9,
		ReadBandwidth:  4e9,
		PerOpLatency:   2 * time.Millisecond,
		Serialized:     true,
	}
}

func (f FSModel) opTime(bytes int64, bandwidth float64) time.Duration {
	if bandwidth <= 0 {
		return f.PerOpLatency
	}
	return f.PerOpLatency + time.Duration(float64(bytes)/bandwidth*float64(time.Second))
}

// Task is one candidate evaluation replayed by the simulator.
type Task struct {
	// TrainTime is the candidate's modeled training duration. In fleet
	// simulations it is the serial (one kernel worker) duration; the kernel
	// model scales it down.
	TrainTime time.Duration
	// CheckpointBytes is the encoded checkpoint size.
	CheckpointBytes int64
	// LoadParent marks tasks that read a provider checkpoint before
	// training (weight-transfer schemes after the population fills).
	LoadParent bool
	// ParentBytes is the provider checkpoint size (0 -> CheckpointBytes).
	ParentBytes int64
	// SlowFactor injects a straggler: the task's training duration is
	// multiplied by it on the evaluator it first lands on (0 or 1 -> no
	// slowdown). Speculative backups re-run at the nominal duration — the
	// backup lands on a healthy evaluator.
	SlowFactor float64
}

// Config configures one simulated candidate-estimation phase.
type Config struct {
	// GPUs is the virtual accelerator count (paper: 8, 16, 32).
	GPUs int
	// Tasks is the replayed workload, dispatched FCFS to free GPUs.
	Tasks []Task
	// WriteCheckpoints enables the per-candidate checkpoint write the
	// weight-transfer schemes add over the baseline.
	WriteCheckpoints bool
	// MatchOverhead is the LP/LCS compute cost added per transferring
	// task (paper Section VIII-E: at most 150 ms).
	MatchOverhead time.Duration
	// SchedulerLatency is the serialized per-task dispatch cost at the
	// scheduler (Ray head node). It bounds throughput for very short
	// tasks — the paper's NT3 non-linearity from 16 to 32 GPUs, which
	// appears in the baseline too.
	SchedulerLatency time.Duration
	// FS is the shared file-system model; zero value -> DefaultFS.
	FS FSModel
}

// Result summarizes a simulated run.
type Result struct {
	// Makespan is the end-to-end candidate-estimation time (Fig 10's y).
	Makespan time.Duration
	// TrainBusy is the summed pure-training time across GPUs.
	TrainBusy time.Duration
	// IOBusy is the summed time tasks spent waiting for or performing
	// checkpoint I/O.
	IOBusy time.Duration
	// GPUBusy is the per-GPU total busy time.
	GPUBusy []time.Duration
}

// OverheadFraction is the share of GPU time not spent training.
func (r Result) OverheadFraction() float64 {
	total := r.TrainBusy + r.IOBusy
	if total == 0 {
		return 0
	}
	return float64(r.IOBusy) / float64(total)
}

// event phases of a candidate evaluation on a virtual GPU.
const (
	evGPUFree   = iota // the GPU finished its previous task
	evTrainDone        // training finished; a checkpoint write may follow
)

type simEvent struct {
	t     time.Duration
	phase int
	gpu   int
	seq   int // FIFO tie-break for simultaneous events
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate replays the workload on the virtual cluster and returns its
// timing. It is an event-driven simulation: tasks dispatch FCFS to GPUs as
// they free up, and checkpoint reads/writes are serviced by the shared file
// system in the order they are issued in simulated time.
func Simulate(cfg Config) (Result, error) {
	if cfg.GPUs <= 0 {
		return Result{}, fmt.Errorf("sim: GPU count %d must be positive", cfg.GPUs)
	}
	if len(cfg.Tasks) == 0 {
		return Result{}, fmt.Errorf("sim: no tasks to simulate")
	}
	fs := cfg.FS
	if fs == (FSModel{}) {
		fs = DefaultFS()
	}
	res := Result{GPUBusy: make([]time.Duration, cfg.GPUs)}

	var (
		fsFree    time.Duration // serialized-FS availability
		schedFree time.Duration // serialized scheduler availability
		next      int           // next task to dispatch
		current   = make([]int, cfg.GPUs)
		began     = make([]time.Duration, cfg.GPUs)
		events    = &eventHeap{}
		seq       int
	)
	fsOp := func(t time.Duration, bytes int64, bandwidth float64) (end time.Duration) {
		cost := fs.opTime(bytes, bandwidth)
		if !fs.Serialized {
			return t + cost
		}
		start := maxDur(t, fsFree)
		fsFree = start + cost
		return fsFree
	}
	push := func(t time.Duration, phase, gpu int) {
		heap.Push(events, simEvent{t: t, phase: phase, gpu: gpu, seq: seq})
		seq++
	}
	for g := 0; g < cfg.GPUs; g++ {
		current[g] = -1
		push(0, evGPUFree, g)
	}

	for events.Len() > 0 {
		ev := heap.Pop(events).(simEvent)
		g := ev.gpu
		switch ev.phase {
		case evGPUFree:
			if current[g] >= 0 {
				res.GPUBusy[g] += ev.t - began[g]
				if ev.t > res.Makespan {
					res.Makespan = ev.t
				}
				current[g] = -1
			}
			if next >= len(cfg.Tasks) {
				continue
			}
			task := cfg.Tasks[next]
			current[g] = next
			began[g] = ev.t
			next++
			t := ev.t
			if cfg.SchedulerLatency > 0 {
				// Task dispatch serializes at the scheduler.
				start := maxDur(t, schedFree)
				schedFree = start + cfg.SchedulerLatency
				res.IOBusy += schedFree - t
				t = schedFree
			}
			if task.LoadParent {
				// The provider-checkpoint read is issued now; a
				// serialized FS services requests in issue order.
				bytes := task.ParentBytes
				if bytes == 0 {
					bytes = task.CheckpointBytes
				}
				ioEnd := fsOp(t, bytes, fs.ReadBandwidth)
				res.IOBusy += (ioEnd - t) + cfg.MatchOverhead
				t = ioEnd + cfg.MatchOverhead
			}
			res.TrainBusy += task.TrainTime
			push(t+task.TrainTime, evTrainDone, g)
		case evTrainDone:
			task := cfg.Tasks[current[g]]
			t := ev.t
			if cfg.WriteCheckpoints {
				ioEnd := fsOp(t, task.CheckpointBytes, fs.WriteBandwidth)
				res.IOBusy += ioEnd - t
				t = ioEnd
			}
			push(t, evGPUFree, g)
		}
	}
	return res, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// NodeType mirrors the paper's Table II hardware rows, the machines the
// simulator's GPU counts stand for.
type NodeType struct {
	Name     string
	CPU      string
	RAMGB    int
	GPUs     int
	GPUModel string
	GPUMemGB int
}

// The paper's two cluster node types (Table II).
var (
	NodeTypeA = NodeType{Name: "A", CPU: "4x AMD EPYC 7742", RAMGB: 1024, GPUs: 8, GPUModel: "NVIDIA Ampere A100", GPUMemGB: 40}
	NodeTypeB = NodeType{Name: "B", CPU: "Intel Xeon E5-2620 v3", RAMGB: 384, GPUs: 2, GPUModel: "NVIDIA Tesla K80", GPUMemGB: 12}
)
