package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"swtnas"
	"swtnas/internal/obs"
)

// workload is one fixed set of seeded searches the benchmark repeats. A
// round runs units one after another; a unit runs tenants searches at once,
// on one shared EvaluatorPool with a slot per tenant when there are several.
// Every search has at most one outstanding candidate, so its candidate
// stream depends on its seeds alone.
type workload struct {
	name, why string
	units     int
	tenants   int
	budget    int
	// target is the score whose first crossing by a search's running best
	// ends its time_to_target_s.
	target float64
	// durable gives each search a fresh checkpoint directory and journal.
	durable bool
	// options returns the options of every search of the workload; the
	// runner fills in seeds, budget and the per-round fields.
	options func() swtnas.SearchOptions
}

// A round holds many searches because one search's cost and quality depend
// strongly on the architectures it draws and on its dataset; the aggregate
// over a round is what stays steady from one run seed to the next.
var workloads = []*workload{
	{
		name:    "cifar10-conv-proxy",
		why:     "f32 conv search with the proxy pre-filter, one evaluator, default kernel split: conv, im2col, BN, GEMM and proxy scoring; checkpoints in memory",
		units:   26,
		tenants: 1,
		budget:  24,
		target:  0.2,
		options: func() swtnas.SearchOptions {
			return swtnas.SearchOptions{App: "cifar10", Scheme: "LCS", DType: "f32",
				PopulationSize: 16, SampleSize: 8, Workers: 1, ProxyFilter: true}
		},
	},
	{
		name:    "uno-tenants-durable",
		why:     "two f32 uno tenants on a 2-slot shared pool with CAS disk stores, journals and top-K GC: small dense GEMMs, optimizer share, writes and fsyncs",
		units:   13,
		tenants: 2,
		budget:  24,
		target:  0.3,
		durable: true,
		// No ProxyFilter here: with RetainTopK it can sweep the checkpoint of
		// a queued proposal's parent (see README.md, "Excluded combinations").
		options: func() swtnas.SearchOptions {
			return swtnas.SearchOptions{App: "uno", Scheme: "LCS", DType: "f32",
				PopulationSize: 4, SampleSize: 2, Workers: 1, RetainTopK: 5}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// searchSeed is the fixed seed of one search of a workload: the same
// searches run whatever the run seed.
func searchSeed(unit, tenant int) int64 {
	return int64(unit)*10 + int64(tenant) + 1
}

// dataSeed derives the seed of a search's synthetic dataset from the run
// seed: the run seed picks the inputs the fixed searches train on.
func dataSeed(seed int64, unit, tenant int) int64 {
	return seed*1000 + int64(unit)*10 + int64(tenant) + 1
}

// searchRun is what the benchmark saw of one search: the candidates in
// arrival order with their arrival offsets from the unit's start.
type searchRun struct {
	seed     int64
	dataSeed int64
	budget   int
	cands    []swtnas.Candidate
	arrived  []time.Duration
	err      error
	// summary is the search's own Result.Summary. With Metrics on, its
	// metric delta spans only this search's run and so also holds whatever
	// concurrent tenants did; the layer figures never add these up.
	summary *swtnas.SearchSummary
	// diskMB is the checkpoint directory's size when the search ended
	// (durable workloads only).
	diskMB float64
	// kernelWorkers samples the pool's kernel-worker gauge at each
	// candidate arrival (traced rounds only).
	kernelWorkers []float64
}

// unitRun is one unit of a round.
type unitRun struct {
	wall     time.Duration
	searches []searchRun
	// peakRSSMB is the process's peak resident memory during the unit.
	peakRSSMB float64
}

// roundRun is one execution of the workload's units.
type roundRun struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	// stealShare is the share of the machine's busy CPU time a hypervisor
	// took away during the round (0 on bare metal). It explains outliers;
	// no metric is adjusted by it.
	stealShare float64
	units      []unitRun
	// delta is the obs registry's change over the whole round: one snapshot
	// before, one after (traced rounds only).
	delta *obs.Snapshot
}

// runner executes rounds. snapshot takes a registry snapshot; tests
// substitute it to count calls.
type runner struct {
	w        *workload
	workdir  string
	snapshot func() *obs.Snapshot
	// budget overrides w.budget when positive (tests).
	budget int
	// trainN/valN override the dataset split sizes when positive (tests).
	trainN, valN int
}

func newRunner(w *workload, workdir string) *runner {
	return &runner{w: w, workdir: workdir, snapshot: obs.Take}
}

func (r *runner) searchBudget() int {
	if r.budget > 0 {
		return r.budget
	}
	return r.w.budget
}

// round runs the workload's first units units once (all of them in a
// measured round). A traced round turns the obs registry on (also through
// SearchOptions.Metrics) and brackets the whole round with one snapshot
// pair; recording starts before the searches do, so the pool's
// registration-time kernel re-split is recorded too. An untraced round
// leaves recording off.
func (r *runner) round(ctx context.Context, seed int64, traced bool, units int) (*roundRun, error) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	rr := &roundRun{traced: traced}
	var before *obs.Snapshot
	if traced {
		before = r.snapshot()
		obs.SetEnabled(true)
	}
	cpu0 := cpuTime()
	busy0, steal0 := vmTicks()
	start := time.Now()
	for u := 0; u < units; u++ {
		ur, err := r.unit(ctx, seed, u, traced)
		if err != nil {
			return nil, err
		}
		rr.units = append(rr.units, ur)
	}
	rr.wall = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	busy1, steal1 := vmTicks()
	rr.stealShare = ratio(float64(steal1-steal0), float64(steal1-steal0+busy1-busy0))
	if traced {
		rr.delta = r.snapshot().Delta(before)
	}
	return rr, nil
}

// unit starts the unit's searches together and waits for all of them. If
// one cannot start, the ones already started are cancelled and awaited.
func (r *runner) unit(ctx context.Context, seed int64, u int, traced bool) (unitRun, error) {
	w := r.w
	ur := unitRun{searches: make([]searchRun, w.tenants)}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Return the previous unit's freed heap to the OS and restart the peak
	// so the unit's peak is its own: the process-lifetime peak is the max of
	// every unit's and swings with whichever search grew the largest model.
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	var pool *swtnas.EvaluatorPool
	if w.tenants > 1 {
		pool = swtnas.NewPool(swtnas.PoolOptions{Workers: w.tenants})
		defer pool.Close()
	}
	kernelGauge := obs.GetGauge("nas.pool.kernel.workers")
	dirs := make([]string, w.tenants)
	handles := make([]*swtnas.SearchHandle, w.tenants)
	for t := range handles {
		sr := &ur.searches[t]
		sr.seed, sr.dataSeed = searchSeed(u, t), dataSeed(seed, u, t)
		sr.budget = r.searchBudget()
		opt := w.options()
		opt.Seed, opt.DataSeed, opt.Budget = sr.seed, sr.dataSeed, sr.budget
		if r.trainN > 0 {
			opt.TrainN, opt.ValN = r.trainN, r.valN
		}
		opt.Metrics = traced
		if pool != nil {
			opt.Pool = pool
			opt.Tenant = fmt.Sprintf("tenant-%d", t)
		}
		// Progress runs on the search's scheduler goroutine and writes only
		// this search's record; Wait orders those writes before the reads
		// after it.
		opt.Progress = func(c swtnas.Candidate) {
			sr.arrived = append(sr.arrived, time.Since(start))
			sr.cands = append(sr.cands, c)
			if traced {
				sr.kernelWorkers = append(sr.kernelWorkers, float64(kernelGauge.Value()))
			}
		}
		var err error
		if w.durable {
			dirs[t], err = os.MkdirTemp(r.workdir, w.name+"-")
			if dirs[t] != "" {
				defer os.RemoveAll(dirs[t])
			}
			opt.CheckpointDir = filepath.Join(dirs[t], "ckpt")
			opt.JournalPath = filepath.Join(dirs[t], "search.swtj")
		}
		if err == nil {
			handles[t], err = swtnas.New(opt)
		}
		if err == nil {
			err = handles[t].Start(ctx)
		}
		if err != nil {
			cancel()
			for _, started := range handles[:t] {
				_, _ = started.Wait() // the start error is the one to report
			}
			return ur, fmt.Errorf("perfbench: starting %s search %d: %w", w.name, sr.seed, err)
		}
	}
	for t, h := range handles {
		sr := &ur.searches[t]
		res, err := h.Wait()
		sr.err = err
		if res != nil {
			sr.summary = res.Summary
		}
		if dirs[t] != "" {
			sr.diskMB = float64(dirBytes(dirs[t])) / 1e6
		}
	}
	ur.wall = time.Since(start)
	ur.peakRSSMB = peakRSSMB()
	return ur, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmTicks reads the machine's busy (user+nice+system+irq+softirq) and steal
// CPU ticks from /proc/stat; zeros where it is unavailable.
func vmTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current RSS
// (Linux clear_refs "5"). Where that fails, peakRSSMB keeps reporting the
// process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
