// Model validation: check the §2.3 water-filling model against an
// independent dynamic simulation.
//
// The analytic traffic model predicts equilibrium bundle rates in one
// pass; here those predictions are compared with the time-averaged
// rates an AIMD sawtooth actually converges to, and the §3 claim that
// FUBAR "avoids building long queues" is tested with real (simulated)
// drop-tail queues rather than the analytic model's equilibrium view.
package main

import (
	"context"
	"fmt"
	"log"

	"fubar"
)

func main() {
	// A congested 10-POP ring: small enough to simulate quickly, loaded
	// enough that shortest paths queue heavily.
	topo, err := fubar.RingTopology(10, 5, 1200*fubar.Kbps, 3)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fubar.DefaultGenConfig(3)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := fubar.GenerateTraffic(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", topo.Summary())
	fmt.Println("traffic: ", mat.Summary())

	s, err := fubar.NewSession(topo, mat)
	if err != nil {
		log.Fatal(err)
	}

	// Shortest-path allocation, analytic and simulated.
	sp, err := fubar.ShortestPathRouting(s.Model(), fubar.Policy{})
	if err != nil {
		log.Fatal(err)
	}
	spSim, err := fubar.SimulateDynamics(topo, mat, sp.Bundles, 0)
	if err != nil {
		log.Fatal(err)
	}

	// FUBAR allocation, analytic and simulated.
	sol, err := s.Optimize(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fuSim, err := fubar.SimulateDynamics(topo, mat, sol.Bundles, 0)
	if err != nil {
		log.Fatal(err)
	}

	// How well does the one-pass model predict the dynamics?
	val, err := fubar.ValidateModel(sol.Bundles, sol.Result, fuSim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel vs dynamic simulation (FUBAR allocation, %d bundles):\n", val.Bundles)
	fmt.Printf("  rate correlation:    %.3f\n", val.Correlation)
	fmt.Printf("  mean relative error: %.1f%%\n", 100*val.MeanRelErr)
	fmt.Printf("  max relative error:  %.1f%%\n", 100*val.MaxRelErr)

	// The queue claim, §3 "Avoiding congestion".
	fmt.Printf("\nsimulated queues (load-weighted mean / worst link):\n")
	fmt.Printf("  shortest paths: %6.2f ms / %6.2f ms\n", spSim.MeanQueueMs, spSim.MaxQueueMs)
	fmt.Printf("  FUBAR:          %6.2f ms / %6.2f ms\n", fuSim.MeanQueueMs, fuSim.MaxQueueMs)
	if spSim.MeanQueueMs > 0 {
		fmt.Printf("  improvement:    %.1fx\n", spSim.MeanQueueMs/fuSim.MeanQueueMs)
	}

	// Utility as the applications would actually experience it (rates
	// and queueing delay from the simulation, not the model).
	fmt.Printf("\nsimulated utility:\n")
	fmt.Printf("  shortest paths: %.4f\n", spSim.NetworkUtility)
	fmt.Printf("  FUBAR:          %.4f (%+.1f%%)\n", fuSim.NetworkUtility,
		100*(fuSim.NetworkUtility-spSim.NetworkUtility)/spSim.NetworkUtility)
	fmt.Printf("\nanalytic utility for reference: sp %.4f, FUBAR %.4f\n",
		sp.Result.NetworkUtility, sol.Utility)
}
