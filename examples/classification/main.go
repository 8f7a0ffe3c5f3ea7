// Classification: recover traffic classes from switch counters alone.
//
// The paper's premise (§1) is that FUBAR "classifies traffic with crude
// heuristics supplemented by operator knowledge". This example hides
// the ground-truth classes behind the SDN measurement plane, watches
// per-aggregate byte counters for a few epochs, derives behavioural
// features (per-flow rate, rate variability, congestion exposure) and
// lets the classifier guess — then scores the guesses against the
// truth, with and without a couple of operator overrides.
package main

import (
	"fmt"
	"log"

	"fubar"
)

func main() {
	// Generous capacity so most aggregates run uncongested: behaviour
	// is only observable when rates are not truncated (§2.2's point
	// about inferring demand from uncongested paths).
	topo, err := fubar.RingTopology(10, 5, 20*fubar.Mbps, 5)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := fubar.GenerateTraffic(topo, fubar.DefaultGenConfig(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", topo.Summary())
	fmt.Println("traffic: ", truth.Summary())

	sim, err := fubar.NewSim(topo, truth, fubar.SimConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		log.Fatal(err)
	}

	// Watch six epochs of counters.
	const epochs = 6
	nAggs := truth.NumAggregates()
	rates := make([][]float64, nAggs)
	congested := make([]int, nAggs)
	flows := make([]int, nAggs)
	for e := 0; e < epochs; e++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		secs := stats.Duration.Seconds()
		for _, r := range stats.Rules {
			kbps := r.Bytes * 8 / 1000 / secs
			rates[r.Agg] = append(rates[r.Agg], kbps)
			if r.Congested {
				congested[r.Agg]++
			}
			flows[r.Agg] = r.Flows
		}
	}

	cl, err := fubar.NewClassifier()
	if err != nil {
		log.Fatal(err)
	}
	confusion := map[string]int{}
	correct, total := 0, 0
	for i := 0; i < nAggs; i++ {
		agg := truth.Aggregate(fubar.AggregateID(i))
		if agg.IsSelfPair() {
			continue
		}
		f := fubar.FlowFeaturesFromRates(rates[i], flows[i], float64(congested[i])/epochs)
		d := cl.Classify(f)
		total++
		if d.Class == agg.Class {
			correct++
		}
		confusion[fmt.Sprintf("%v->%v", agg.Class, d.Class)]++
	}
	fmt.Printf("\nbehavioural classification over %d epochs of counters:\n", epochs)
	fmt.Printf("  accuracy: %d/%d (%.1f%%)\n", correct, total, 100*float64(correct)/float64(total))
	for k, n := range confusion {
		fmt.Printf("  %-22s %4d\n", k, n)
	}

	fmt.Println("\nbulk flows sit above the real-time rate ceiling and below the")
	fmt.Println("large-file floor, so behaviour alone separates the three classes;")
	fmt.Println("congested aggregates lose confidence and keep their default until")
	fmt.Println("the operator supplies knowledge:")

	// Operator knowledge: every aggregate into POP "n03" is a video
	// conferencing hub, whatever its rate looks like.
	cl2, err := fubar.NewClassifier(
		fubar.ClassifierOverride{DstName: "n03", Class: fubar.ClassRealTime})
	if err != nil {
		log.Fatal(err)
	}
	d := cl2.Classify(fubar.FlowFeatures{DstName: "n03", MeanRatePerFlow: 900 * fubar.Kbps})
	fmt.Printf("  override for dst n03: class %v, confidence %.1f, source %v\n",
		d.Class, d.Confidence, d.Source)
}
