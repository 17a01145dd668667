// Distributed: run the scheduler/evaluator split over real TCP, the
// architecture of the paper's Figure 6 with net/rpc workers standing in for
// Ray evaluators. The search is the ordinary nas.Run loop (regularized
// evolution, journaling, checkpoint store); a cluster.Executor ships its
// candidates to the workers (here: three goroutines, but the same binary runs
// on other hosts via cmd/swtnas-worker), which train them and stream
// checkpoints back into the search's store. Each provider's checkpoint rides
// along inside its children's tasks.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"swtnas/internal/apps"
	"swtnas/internal/cluster"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
)

func main() {
	log.SetFlags(0)

	coordinator := cluster.NewCoordinator()
	exec, err := cluster.NewExecutor(coordinator)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go coordinator.Serve(l) //nolint:errcheck // exits when the listener closes
	fmt.Printf("coordinator listening on %s\n", l.Addr())

	const workers = 3
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := &cluster.Worker{ID: fmt.Sprintf("worker-%d", i)}
		go func() { done <- w.Run(l.Addr().String()) }()
	}
	fmt.Printf("%d workers connected\n\n", workers)

	app, err := apps.New("mnist", 1, apps.Config{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := nas.Run(context.Background(), nas.Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 8, 4),
		Matcher:  core.LCS{},
		Workers:  workers,
		Budget:   24,
		Seed:     3,
		Executor: exec,
	})
	if err != nil {
		log.Fatal(err)
	}

	best := 0.0
	transferred := 0
	for _, r := range tr.Records {
		if r.Score > best {
			best = r.Score
		}
		if r.TransferCopied > 0 {
			transferred++
		}
	}
	fmt.Printf("distributed search finished: %d candidates, best accuracy %.4f\n", len(tr.Records), best)
	fmt.Printf("%d candidates warm-started from checkpoints shipped over TCP\n", transferred)

	coordinator.Shutdown()
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
	l.Close()
	fmt.Println("workers shut down cleanly")
}
