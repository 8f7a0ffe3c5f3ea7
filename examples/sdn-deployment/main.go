// SDN deployment: FUBAR behind a highly available online controller
// (§5 "in conjunction with an online controller"), over real TCP.
//
// Three controller replicas listen on loopback; one fail-safe switch
// agent per POP homes on a replica by rendezvous order and fronts a
// simulated datapath. Every epoch runs the cycle the paper describes:
// measure the traffic matrix from switch counters (§2.1), infer per-flow
// demands (§2.2), re-optimize warm-started from the installed allocation
// (§2.4-2.5) and push the result back as differential FlowMods — all over
// the wire protocol. The ctrlstorm timeline kills and re-seats controller
// replicas while demand churns: orphaned switches re-home onto the
// survivors, which resync their rule tables before the epoch's install.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"fubar"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A mid-size network: 12-POP ring with chords, congested at 2 Mbps.
	topo, err := fubar.RingTopology(12, 6, 2*fubar.Mbps, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fubar.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 5}
	truth, err := fubar.GenerateTraffic(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", topo.Summary())
	fmt.Println("traffic: ", truth.Summary())

	// The session builds the control plane — replicas, agents, simulated
	// fabric — on the first closed-loop replay and keeps it until Close.
	s, err := fubar.NewSession(topo, truth, fubar.WithReplicas(3))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	storm, err := fubar.ScenarioByName("ctrlstorm", 7, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s, 3 controller replicas:\n", storm.Name)
	fmt.Println("epoch  flowmods  failovers  resyncs  true utility: stale -> re-optimized")
	var flowMods, failovers int
	for er, err := range s.ReplayClosedLoop(ctx, storm) {
		if err != nil {
			log.Fatal(err)
		}
		var ctrlEvents []string
		for _, ev := range er.Events {
			if strings.HasPrefix(ev, "controller-") {
				ctrlEvents = append(ctrlEvents, ev)
			}
		}
		fmt.Printf("%5d  %8d  %9d  %7d  %.4f -> %.4f  %s\n",
			er.Epoch, er.WireFlowMods, er.Failovers, er.ResyncFlowMods,
			er.StaleTrueUtility, er.TrueUtility, strings.Join(ctrlEvents, "; "))
		flowMods += er.WireFlowMods
		failovers += er.Failovers
	}
	fmt.Printf("\n%d FlowMods on the wire, %d controller failovers ridden out\n", flowMods, failovers)
}
