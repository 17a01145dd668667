// Command perfbench is swtnas's end-to-end search benchmark. It drives the
// public swtnas API on one of a few fixed, seeded workloads for a set time,
// checks every search's output, and prints each metric by name with its unit
// and sample count; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with metrics
// recording off. With -trace 1 the run alternates untraced and traced rounds
// and reports the per-layer breakdown of the traced ones plus the tracing
// overhead. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workdir holds the durable workload's per-search checkpoint stores and
// journals, under the build directory run.sh uses.
const workdir = ".bench_build/work"

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "run seed; every search seed derives from it")
	seconds := flag.Int("seconds", 40, "measured time: rounds start while they fit in it")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown of traced rounds instead of end-to-end metrics")
	flag.Parse()

	w := findWorkload(*name)
	switch {
	case w == nil:
		fail("unknown -workload %q (one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		fail("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fail("-trace must be 0 or 1")
	case os.Getenv("SWTNAS_WORKERS") != "":
		// The variable pins the kernel pool and switches off both nas.Run's
		// evaluator×kernel auto-split and the shared pool's re-split, which
		// would hide any change to that split.
		fail("SWTNAS_WORKERS is set; unset it to run the benchmark")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fail("%v", err)
	}

	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)

	rounds, recheck, err := measure(newRunner(w, workdir), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail("%v", err)
	}
	all := rounds
	if recheck != nil {
		all = append(all[:len(all):len(all)], recheck)
	}
	for i, rr := range rounds {
		_, done := counts([]*roundRun{rr})
		fmt.Printf("round %d: wall %.3fs cpu %.3fs steal %.3f cand %d\n", i, rr.wall.Seconds(), rr.cpu.Seconds(), rr.stealShare, done)
	}
	for _, s := range searches(rounds) {
		t, _ := timeToTarget(s, w.target)
		fmt.Printf("search seed %d data %d: %d candidates, best %.4f, time to target %.3fs\n",
			s.seed, s.dataSeed, len(s.cands), bestScore(s), t.Seconds())
	}

	problems := checkStreams(all)
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	var ms []metric
	if *trace == 1 {
		ms = perLayer(w, rounds)
	} else {
		var notes []string
		ms, notes = endToEnd(w, rounds)
		for _, n := range notes {
			fmt.Println(n)
		}
	}
	out := result{Correct: len(problems) == 0, Metrics: map[string]value{}}
	attempted, completed := counts(all)
	out.Attempted, out.Failed = attempted, attempted-completed
	for _, m := range ms {
		fmt.Printf("metric %-28s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

// measure runs rounds of the workload while the next one fits in budget,
// and at least one; a traced run alternates untraced and traced rounds and
// runs at least one of each. The output check compares every round with the
// first, so when only one round ran, measure re-runs its first unit as
// recheck; the recheck only feeds that comparison.
func measure(r *runner, seed int64, budget time.Duration, trace bool) (rounds []*roundRun, recheck *roundRun, err error) {
	minRounds := 1
	if trace {
		minRounds = 2
	}
	start := time.Now()
	for {
		rr, err := r.round(context.Background(), seed, trace && len(rounds)%2 == 1, r.w.units)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, rr)
		elapsed := time.Since(start)
		if len(rounds) >= minRounds && elapsed+elapsed/time.Duration(len(rounds)) > budget {
			break
		}
	}
	if len(rounds) == 1 {
		if recheck, err = r.round(context.Background(), seed, false, 1); err != nil {
			return nil, nil, err
		}
	}
	return rounds, recheck, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func bestScore(s *searchRun) float64 {
	if n := len(s.cands); n > 0 {
		return s.cands[n-1].BestScore
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
