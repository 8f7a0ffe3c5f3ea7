package ctrlplane

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/measure"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// testNet is a small deployment: topology, ground truth, fabric, a
// one-seat replica set and one managed agent per POP, all over loopback
// TCP.
type testNet struct {
	topo   *topology.Topology
	truth  *traffic.Matrix
	fabric *Fabric
	rs     *ReplicaSet
	seat   *Controller
}

// oneSeat starts a one-seat replica set, closed when the test ends, and
// returns it with its seat.
func oneSeat(t *testing.T, cfg Config) (*ReplicaSet, *Controller) {
	t.Helper()
	rs, err := NewReplicaSet(1, cfg)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs, rs.live(nil)[0]
}

// waitSwitches blocks until rs settles with n switches homed.
func waitSwitches(t *testing.T, rs *ReplicaSet, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rs.Settle(ctx, n); err != nil {
		t.Fatalf("Settle: %v", err)
	}
}

// managedAgent starts a managed agent homing on rs, closed when the test
// ends (before the set is: cleanups run last-registered first).
func managedAgent(t *testing.T, rs *ReplicaSet, id uint32, name string, dp Datapath) *ManagedAgent {
	t.Helper()
	ma, err := NewManagedAgent(id, name, dp, rs, fastAgentCfg())
	if err != nil {
		t.Fatalf("NewManagedAgent %d: %v", id, err)
	}
	t.Cleanup(func() { ma.Close() })
	return ma
}

// bareAgent dials one Agent connection to addr — what a managed agent
// does per (re)connect — and serves it in the background. The returned
// channel yields Serve's result.
func bareAgent(t *testing.T, addr string, id uint32, name string, dp Datapath) (*Agent, <-chan error) {
	t.Helper()
	a, err := dial(addr, id, name, dp, Config{}.withDefaults(), new(flowModFence))
	if err != nil {
		t.Fatalf("dial %d: %v", id, err)
	}
	t.Cleanup(func() { a.Close() })
	done := make(chan error, 1)
	go func() { done <- a.Serve() }()
	return a, done
}

// seatRPC sends req, answered by a want reply under token, to switch
// id through the seat in a one-target, one-attempt RPC round, and returns
// whether the want reply came, or the attempt's error.
func seatRPC(seat *Controller, id uint32, token uint64, req Message, want MsgType) (bool, error) {
	r := &round{targets: []rpcTarget{{c: seat, id: id, req: req, token: token, want: want}}}
	r.run(context.Background(), 1, seat.set)
	return r.targets[0].ok, r.targets[0].err
}

// allocationTables is an allocation's per-switch rule tables, built alone.
func allocationTables(mat *traffic.Matrix, bundles []flowmodel.Bundle) map[uint32][]Rule {
	var b tableBuilder
	b.build(mat, bundles)
	out := make(map[uint32][]Rule)
	for id := range uint32(max(len(b.start)-1, 0)) {
		if t := b.table(id); t != nil {
			out[id] = t
		}
	}
	return out
}

// echo round-trips an Echo to switch id through the seat: the
// control-channel liveness check.
func echo(t *testing.T, seat *Controller, id uint32) {
	t.Helper()
	if _, err := seat.lookup(id); err != nil {
		t.Fatalf("lookup %d: %v", id, err)
	}
	token := seat.nextToken()
	ok, err := seatRPC(seat, id, token, Echo{Token: token}, MsgEchoReply)
	if err != nil || !ok {
		t.Fatalf("echo to switch %d: answered %v, %v", id, ok, err)
	}
}

// startNet builds and connects the deployment.
func startNet(t *testing.T, seed int64) *testNet {
	t.Helper()
	topo, truth, fabric := newTestFabric(t, seed)
	rs, seat := oneSeat(t, Config{RequestTimeout: 5 * time.Second})
	for node := 0; node < topo.NumNodes(); node++ {
		id := topology.NodeID(node)
		managedAgent(t, rs, uint32(node), topo.NodeName(id), fabric.Datapath(id))
	}
	waitSwitches(t, rs, topo.NumNodes())
	return &testNet{topo: topo, truth: truth, fabric: fabric, rs: rs, seat: seat}
}

// newTestFabric builds the deployment's network: a 6-node ring, its
// ground truth, and a fabric over a simulator routing shortest paths.
func newTestFabric(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix, *Fabric) {
	t.Helper()
	topo, err := topology.Ring(6, 3, 800*unit.Kbps, seed)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 6}
	cfg.BulkFlows = [2]int{1, 4}
	truth, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sim, err := sdnsim.New(topo, truth, sdnsim.Config{Seed: seed})
	if err != nil {
		t.Fatalf("sdnsim.New: %v", err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatalf("InstallShortestPaths: %v", err)
	}
	return topo, truth, NewFabric(sim)
}

func TestHandshakeAndPing(t *testing.T) {
	n := startNet(t, 1)
	if got := n.rs.SwitchCount(); got != n.topo.NumNodes() {
		t.Fatalf("%d switches registered, want %d", got, n.topo.NumNodes())
	}
	for i := 0; i < n.topo.NumNodes(); i++ {
		sw, err := n.seat.lookup(uint32(i))
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if want := n.topo.NodeName(topology.NodeID(i)); sw.name != want {
			t.Fatalf("switch %d named %q, want %q", i, sw.name, want)
		}
	}
	echo(t, n.seat, 0)
}

func TestStatsCollection(t *testing.T) {
	n := startNet(t, 2)
	if err := n.fabric.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	replies, err := n.rs.CollectStats(context.Background())
	if err != nil {
		t.Fatalf("CollectStats: %v", err)
	}
	if len(replies) != n.topo.NumNodes() {
		t.Fatalf("%d replies, want %d", len(replies), n.topo.NumNodes())
	}
	// Every backbone aggregate must be counted exactly once, at its
	// ingress switch.
	seen := make(map[int32]uint32)
	for swID, r := range replies {
		for _, c := range r.Counters {
			if prev, dup := seen[c.Agg]; dup {
				t.Fatalf("aggregate %d counted at switches %d and %d", c.Agg, prev, swID)
			}
			seen[c.Agg] = swID
			if src := n.truth.Aggregate(traffic.AggregateID(c.Agg)).Src; src != topology.NodeID(swID) {
				t.Fatalf("aggregate %d (ingress %d) reported by switch %d", c.Agg, src, swID)
			}
		}
	}
	if len(seen) != n.truth.NumAggregates() {
		t.Fatalf("%d aggregates counted, want %d", len(seen), n.truth.NumAggregates())
	}
}

func TestInstallAllocationReachesFabric(t *testing.T) {
	n := startNet(t, 3)
	model, err := flowmodel.New(n.topo, n.truth)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if _, err := n.rs.InstallAllocationDiff(context.Background(), n.truth, sol.Bundles, 1); err != nil {
		t.Fatalf("InstallAllocationDiff: %v", err)
	}
	if got := n.fabric.installCount(); got != 1 {
		t.Fatalf("fabric saw %d installs, want 1", got)
	}
	// The installed routing must carry the FUBAR utility on the next
	// epoch (modulo demand jitter).
	if err := n.fabric.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	u, ok := n.fabric.TrueUtility()
	if !ok {
		t.Fatal("no epoch utility")
	}
	if diff := u - sol.Utility; diff < -0.1 || diff > 0.1 {
		t.Fatalf("epoch utility %.4f far from predicted %.4f", u, sol.Utility)
	}
}

// TestClosedLoopImprovesUtility runs the measure → estimate → optimize →
// install cycle over the wire and checks that the installed allocation
// lifts the fabric's true utility above shortest-path routing: six
// measured epochs, re-optimizing on the estimate after every third.
func TestClosedLoopImprovesUtility(t *testing.T) {
	n := startNet(t, 4)
	ctx := context.Background()
	// Baseline: utility under shortest paths.
	if err := n.fabric.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	spUtility, _ := n.fabric.TrueUtility()

	est := measure.NewEstimator(measure.KeysFromMatrix(n.truth))
	var merged sdnsim.EpochStats
	installs := 0
	for epoch := 0; epoch < 6; epoch++ {
		if err := n.fabric.RunEpoch(); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
		replies, err := n.rs.CollectStats(ctx)
		if err != nil {
			t.Fatalf("CollectStats epoch %d: %v", epoch, err)
		}
		MergeStats(n.topo, replies, &merged)
		if err := est.Observe(&merged); err != nil {
			t.Fatalf("Observe epoch %d: %v", epoch, err)
		}
		if (epoch+1)%3 != 0 {
			continue
		}
		mat, err := est.Matrix(n.topo)
		if err != nil {
			t.Fatalf("Matrix: %v", err)
		}
		model, err := flowmodel.New(n.topo, mat)
		if err != nil {
			t.Fatalf("flowmodel.New: %v", err)
		}
		sol, err := core.Run(ctx, model, core.Options{})
		if err != nil {
			t.Fatalf("core.Run: %v", err)
		}
		installs++
		if _, err := n.rs.InstallAllocationDiff(ctx, mat, sol.Bundles, uint64(installs)); err != nil {
			t.Fatalf("InstallAllocationDiff %d: %v", installs, err)
		}
	}
	if err := n.fabric.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	finalUtility, _ := n.fabric.TrueUtility()
	if finalUtility <= spUtility {
		t.Fatalf("closed loop did not improve: %.4f <= %.4f", finalUtility, spUtility)
	}
	t.Logf("shortest-path %.4f -> closed-loop %.4f (%d installs)", spUtility, finalUtility, installs)
}

func TestInstallRejectsWrongIngress(t *testing.T) {
	n := startNet(t, 5)
	// Find a backbone aggregate and route it from the wrong switch: the
	// fabric must refuse, so the controller's install must fail.
	var bad traffic.Aggregate
	for _, a := range n.truth.Aggregates() {
		if !a.IsSelfPair() {
			bad = a
			break
		}
	}
	wrong := (uint32(bad.Src) + 1) % uint32(n.topo.NumNodes())
	if _, err := n.seat.lookup(wrong); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	_, err := seatRPC(n.seat, wrong, 42, FlowMod{Generation: 42, Rules: []Rule{
		{Agg: int32(bad.ID), Flows: uint32(bad.Flows)},
	}}, MsgFlowModAck)
	if err == nil {
		t.Fatal("install at wrong ingress succeeded")
	}
	var em ErrorMsg
	if !asErrorMsg(err, &em) || em.Code != ErrCodeInstall {
		t.Fatalf("want ErrCodeInstall error, got %v", err)
	}
}

// asErrorMsg unwraps err into an ErrorMsg if it is one.
func asErrorMsg(err error, out *ErrorMsg) bool {
	em, ok := err.(ErrorMsg)
	if ok {
		*out = em
	}
	return ok
}

func TestPartialInstallStaysPending(t *testing.T) {
	n := startNet(t, 6)
	if err := n.fabric.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	// Push rules for only one switch's aggregates: the fabric must hold
	// them pending (no install) because coverage is incomplete.
	var rules []Rule
	for _, a := range n.truth.Aggregates() {
		if a.Src != 0 {
			continue
		}
		var links []uint32
		if !a.IsSelfPair() {
			// reuse the currently installed shortest path via counters
			continue
		}
		rules = append(rules, Rule{Agg: int32(a.ID), Flows: uint32(a.Flows), Links: links})
	}
	if len(rules) == 0 {
		t.Skip("no self-pair aggregates at node 0")
	}
	dp := n.fabric.Datapath(0)
	if err := dp.InstallRules(7, rules); err != nil {
		t.Fatalf("InstallRules: %v", err)
	}
	if got := n.fabric.installCount(); got != 0 {
		t.Fatalf("partial rule set activated: %d installs", got)
	}
}

// TestPartialInstallAllocatesNothing: every per-switch table of an
// install but the last leaves the fabric's coverage incomplete, and
// checking that builds nothing; the last one activates the union once,
// and every table counts as one acked FlowMod.
func TestPartialInstallAllocatesNothing(t *testing.T) {
	topo, truth, fabric := newTestFabric(t, 7)
	model, err := flowmodel.New(topo, truth)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	tables := allocationTables(truth, sol.Bundles)
	ids := slices.Sorted(maps.Keys(tables))
	for i, id := range ids {
		if err := fabric.Datapath(topology.NodeID(id)).InstallRules(uint64(i+1), tables[id]); err != nil {
			t.Fatalf("InstallRules(switch %d): %v", id, err)
		}
		if i == len(ids)-1 {
			break
		}
		if got := fabric.installCount(); got != 0 {
			t.Fatalf("union activated after %d of %d tables", i+1, len(ids))
		}
		allocs := testing.AllocsPerRun(20, func() {
			fabric.mu.Lock()
			fabric.pending = true
			_ = fabric.tryActivate()
			fabric.mu.Unlock()
		})
		if allocs != 0 {
			t.Fatalf("tryActivate on %d of %d tables allocated %.1f objects, want 0", i+1, len(ids), allocs)
		}
	}
	if got := fabric.installCount(); got != 1 {
		t.Fatalf("%d activations after the last table, want 1", got)
	}
	if got := fabric.AckedFlowMods(); got != len(ids) {
		t.Fatalf("%d acked FlowMods, want %d", got, len(ids))
	}
}

// TestFabricKeepsNoRuleStorage: a datapath may not keep the rules it is
// given — the agent decodes every FlowMod into the same storage — so the
// fabric copies each table, links and all. Tables of two allocations are
// installed switch by switch, the caller's rules scribbled over after each
// call; the fabric's tables, and the counters of the union it routes on,
// must still be the tables installed.
func TestFabricKeepsNoRuleStorage(t *testing.T) {
	topo, truth, fabric := newTestFabric(t, 7)
	model, err := flowmodel.New(topo, truth)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(rules []Rule) {
		for i := range rules {
			for j := range rules[i].Links {
				rules[i].Links[j] = ^uint32(0)
			}
			rules[i].Agg, rules[i].Flows = -1, 0
		}
	}
	for _, bundles := range [][]flowmodel.Bundle{sol.Bundles, ingressBundles(truth)} {
		tables := allocationTables(truth, bundles)
		want := make(map[uint32][]Rule, len(tables))
		for id, rules := range tables {
			var kept ruleTable
			kept.set(rules)
			want[id] = kept.rules
		}
		installs := fabric.installCount()
		for _, id := range slices.Sorted(maps.Keys(tables)) {
			if err := fabric.Datapath(topology.NodeID(id)).InstallRules(1, tables[id]); err != nil {
				t.Fatalf("InstallRules(switch %d): %v", id, err)
			}
			scribble(tables[id])
		}
		if fabric.installCount() == installs {
			t.Fatal("the allocation's tables never activated")
		}
		for id, rules := range want {
			if got := fabric.perSwitch[id].rules; !rulesEqual(got, rules) {
				t.Fatalf("switch %d: the fabric holds %v, want %v", id, got, rules)
			}
		}
		if err := fabric.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		for id, rules := range want {
			var batch CounterBatch
			if err := fabric.Datapath(topology.NodeID(id)).ReadCounters(&batch); err != nil {
				t.Fatal(err)
			}
			got := make([]Rule, len(batch.Counters))
			for i, c := range batch.Counters {
				got[i] = Rule{Agg: c.Agg, Flows: c.Flows, Links: c.Links}
			}
			if !rulesEqual(got, rules) {
				t.Fatalf("switch %d: the union routes %v, want %v", id, got, rules)
			}
		}
	}
}

// TestHelloAckAdvertisesMeasurementInterval: the interval an agent learns
// in the handshake is the simulator's, the one owner of that value.
func TestHelloAckAdvertisesMeasurementInterval(t *testing.T) {
	rs, _ := oneSeat(t, Config{})
	a, _ := bareAgent(t, rs.DialOrder(0)[0], 0, "sw0", nopDatapath{})
	if want := uint32(sdnsim.MeasurementInterval / time.Millisecond); a.EpochMs != want {
		t.Errorf("agent learned a %d ms epoch, want %d", a.EpochMs, want)
	}
}

func TestDuplicateRegistrationReplacesOld(t *testing.T) {
	rs, seat := oneSeat(t, Config{})
	addr := rs.DialOrder(0)[0]
	_, firstDone := bareAgent(t, addr, 0, "first", nopDatapath{})
	waitSwitches(t, rs, 1)
	// A second agent for switch 0 displaces the first, whose connection
	// the controller closes.
	bareAgent(t, addr, 0, "dup", nopDatapath{})
	select {
	case <-firstDone:
	case <-time.After(5 * time.Second):
		t.Fatal("displaced registration still served")
	}
	waitCond(t, "replacement registration", func() bool {
		sw, err := seat.lookup(0)
		return err == nil && sw.name == "dup"
	})
	echo(t, seat, 0)
}

func TestCollectStatsNoSwitches(t *testing.T) {
	rs, _ := oneSeat(t, Config{})
	if _, err := rs.CollectStats(context.Background()); err == nil {
		t.Fatal("CollectStats with no switches succeeded")
	}
	if _, err := rs.InstallAllocationDiff(context.Background(), nil, nil, 1); err == nil {
		t.Fatal("InstallAllocationDiff with no switches succeeded")
	}
}

func TestAgentDialErrors(t *testing.T) {
	rs, seat := oneSeat(t, Config{})
	if _, err := NewManagedAgent(0, "x", nil, rs, Config{}); err == nil {
		t.Fatal("nil datapath accepted")
	}
	if _, err := NewManagedAgent(0, "x", nopDatapath{}, nil, Config{}); err == nil {
		t.Fatal("nil dial directory accepted")
	}
	addr := rs.DialOrder(0)[0]
	seat.Close()
	if _, err := dial(addr, 0, "x", nopDatapath{}, Config{HandshakeTimeout: 500 * time.Millisecond}.withDefaults(), new(flowModFence)); err == nil {
		t.Fatal("dial to closed controller succeeded")
	}
}

// nopDatapath satisfies Datapath for connection-level tests.
type nopDatapath struct{}

func (nopDatapath) InstallRules(uint64, []Rule) error { return nil }
func (nopDatapath) ReadCounters(*CounterBatch) error {
	return fmt.Errorf("no counters")
}

func TestStatsErrorPropagates(t *testing.T) {
	rs, _ := oneSeat(t, Config{RequestTimeout: 2 * time.Second})
	managedAgent(t, rs, 0, "n0", nopDatapath{})
	waitSwitches(t, rs, 1)
	if _, err := rs.CollectStats(context.Background()); err == nil {
		t.Fatal("counter failure did not propagate")
	}
}

func TestControllerCloseIdempotent(t *testing.T) {
	_, seat := oneSeat(t, Config{})
	if err := seat.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := seat.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMergeStats(t *testing.T) {
	topo, err := topology.Ring(4, 0, 1000*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	replies := map[uint32]StatsReply{
		0: {Epoch: 3, DurationMs: 10000, Counters: []CounterRec{
			{Agg: 0, Flows: 2, Bytes: 100, Congested: true, Links: []uint32{0, 1}},
		}},
		1: {Epoch: 3, DurationMs: 10000, Counters: []CounterRec{
			{Agg: 1, Flows: 1, Bytes: 50, Links: []uint32{1}},
		}},
	}
	stats := new(sdnsim.EpochStats)
	MergeStats(topo, replies, stats)
	if stats.Epoch != 3 || stats.Duration != 10*time.Second {
		t.Fatalf("epoch metadata wrong: %+v", stats)
	}
	if len(stats.Rules) != 2 {
		t.Fatalf("%d rules merged, want 2", len(stats.Rules))
	}
	if stats.LinkBytes[1] != 150 {
		t.Fatalf("link 1 bytes %.0f, want 150", stats.LinkBytes[1])
	}
	if !stats.LinkCongested[0] || !stats.LinkCongested[1] {
		t.Fatalf("congestion marks wrong: %v", stats.LinkCongested)
	}
	if stats.LinkCongested[2] {
		t.Fatal("unrelated link marked congested")
	}
}

// TestMergeStatsIsOrderFree merges one six-switch reply map fifty times,
// into a fresh EpochStats and into a reused one: the merged rules must
// come out in ascending switch ID every time, and each link's byte sum —
// of terms whose float sum depends on their order — must keep its bits.
// A merge that follows the map's iteration order fails both.
func TestMergeStatsIsOrderFree(t *testing.T) {
	topo, err := topology.Ring(6, 0, 1000*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	bytes := []float64{1e16, 1, -1e16, 0.1, 3e-3, 7e15}
	replies := make(map[uint32]StatsReply)
	for sw := uint32(0); sw < 6; sw++ {
		replies[sw] = StatsReply{Epoch: 2, DurationMs: 10000, Counters: []CounterRec{
			{Agg: int32(2 * sw), Flows: 1, Bytes: bytes[sw], Links: []uint32{0, sw + 1}},
			{Agg: int32(2*sw + 1), Flows: 2, Bytes: bytes[(sw+3)%6], Congested: sw == 4, Links: []uint32{1}},
		}}
	}
	var want string
	reused := new(sdnsim.EpochStats)
	for i := 0; i < 50; i++ {
		stats := reused
		if i%2 == 0 {
			stats = new(sdnsim.EpochStats)
		}
		MergeStats(topo, replies, stats)
		for r := 1; r < len(stats.Rules); r++ {
			if stats.Rules[r].Agg < stats.Rules[r-1].Agg {
				t.Fatalf("merge %d: rules out of switch order: %+v", i, stats.Rules)
			}
		}
		got := fmt.Sprintf("%+v", *stats)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("merge %d differs from the first:\n%s\n%s", i, got, want)
		}
	}
}
