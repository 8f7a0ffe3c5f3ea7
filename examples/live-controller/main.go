// Live controller: the closed loop the paper sketches in §2.1 — FUBAR as
// an offline optimizer fed by SDN switch counters, with no prior
// knowledge of the traffic matrix.
//
// The simulated network carries hidden, jittering demands. The controller
// starts from shortest-path routing, reads rule counters each epoch,
// infers every aggregate's bandwidth peak from uncongested observations
// (§2.2), periodically reoptimizes on the *estimated* matrix and installs
// the result. The printout tracks the true utility it cannot see.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"fubar"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A mid-sized random network so the demo runs in seconds.
	topo, err := fubar.RingTopology(12, 8, 3*fubar.Mbps, 11)
	if err != nil {
		log.Fatal(err)
	}
	// Hidden ground truth the controller never sees directly.
	cfg := fubar.DefaultGenConfig(23)
	cfg.RealTimeFlows = [2]int{2, 12}
	cfg.BulkFlows = [2]int{1, 6}
	cfg.LargeFlows = [2]int{1, 2}
	truth, err := fubar.GenerateTraffic(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := fubar.NewSim(topo, truth, fubar.SimConfig{Seed: 5, DemandJitter: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("network:", topo.Summary())
	fmt.Println("hidden truth:", truth.Summary())
	fmt.Println()

	est := fubar.NewEstimator(fubar.EstimatorKeys(truth))
	const epochs = 12
	const reoptimizeEvery = 4

	for epoch := 0; epoch < epochs; epoch++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		if err := est.Observe(stats); err != nil {
			log.Fatal(err)
		}
		congested := 0
		for _, c := range stats.LinkCongested {
			if c {
				congested++
			}
		}
		fmt.Printf("epoch %2d: true utility %.4f, %2d congested links\n",
			epoch, stats.TrueUtility, congested)

		if (epoch+1)%reoptimizeEvery != 0 {
			continue
		}
		// Reoptimize on the estimated matrix and install the result.
		estMat, err := est.Matrix(topo)
		if err != nil {
			log.Fatal(err)
		}
		// Each estimate is a new instance: a short-lived session per
		// re-optimization, budgeted and cancellable via the context.
		opt, err := fubar.NewSession(topo, estMat, fubar.WithBudget(20*time.Second))
		if err != nil {
			log.Fatal(err)
		}
		sol, err := opt.Optimize(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Install(sol.Bundles); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("          -> reoptimized on estimated TM: predicted %.4f, %d moves, installed\n",
			sol.Utility, sol.Steps)
	}
}
