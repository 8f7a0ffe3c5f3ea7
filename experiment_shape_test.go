package fubar

// Shape tests: assert the qualitative results of every paper figure on
// scaled-down instances that converge in milliseconds. The full-size runs
// live in cmd/fubar-bench; what must hold at any scale is the *shape* —
// who wins, what gets eliminated, which way distributions shift.

import (
	"context"
	"math"
	"testing"

	"fubar/internal/baseline"
	"fubar/internal/core"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/metrics"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// ringConfig builds the scaled evaluation instance: a 10-node ring with 6
// chords and the §3 class mix at reduced flow counts.
func ringConfig(t testing.TB, capacity unit.Bandwidth) experiment.Config {
	t.Helper()
	topo, err := topology.Ring(10, 6, capacity, 21)
	if err != nil {
		t.Fatal(err)
	}
	tc := traffic.DefaultGenConfig(33)
	tc.RealTimeFlows = [2]int{2, 10}
	tc.BulkFlows = [2]int{1, 5}
	tc.LargeFlows = [2]int{1, 2}
	return experiment.Config{Topology: topo, Seed: 33, Traffic: &tc}
}

// Fig 3 shape: in the provisioned regime FUBAR eliminates congestion,
// closely approaches the upper bound, and the utilization curves meet.
func TestShapeProvisioned(t *testing.T) {
	cfg := ringConfig(t, 5000*unit.Kbps)
	r, err := experiment.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := r.Solution
	if sol.Stop != core.StopNoCongestion {
		t.Errorf("stop = %v, want no-congestion (provisioned regime)", sol.Stop)
	}
	if sol.Utility < r.ShortestPath {
		t.Errorf("utility %v below shortest path %v", sol.Utility, r.ShortestPath)
	}
	if sol.Utility < 0.98*r.UpperBound {
		t.Errorf("utility %v does not approach upper bound %v", sol.Utility, r.UpperBound)
	}
	// "If the two curves meet, demand has been satisfied."
	actual, _ := r.ActualUtilization.Last()
	demanded, _ := r.DemandedUtilization.Last()
	if demanded.V-actual.V > 0.01 {
		t.Errorf("utilization gap %.4f persists in the provisioned case", demanded.V-actual.V)
	}
	// Shortest path must actually have been congested, or the instance
	// proves nothing.
	first, firstD := r.ActualUtilization.Samples()[0], r.DemandedUtilization.Samples()[0]
	if firstD.V-first.V < 0.01 {
		t.Error("instance not congested under shortest-path routing")
	}
}

// Fig 4 shape: underprovisioned leaves congestion but still improves
// utility substantially (paper: "over 30%"), and the upper bound stays
// unreachable.
func TestShapeUnderprovisioned(t *testing.T) {
	cfg := ringConfig(t, 1500*unit.Kbps)
	r, err := experiment.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := r.Solution
	if sol.Stop != core.StopLocalOptimum {
		t.Errorf("stop = %v, want local-optimum (congestion must persist)", sol.Stop)
	}
	gain := (sol.Utility - r.ShortestPath) / r.ShortestPath
	// The paper reports "over 30%" at full scale; on this scaled ring the
	// same shape lands a little lower, so assert a substantial gain.
	if gain < 0.25 {
		t.Errorf("gain = %.1f%%, want >= 25%%", 100*gain)
	}
	if sol.Utility > 0.97*r.UpperBound {
		t.Errorf("utility %v reached the bound %v despite underprovisioning", sol.Utility, r.UpperBound)
	}
	actual, _ := r.ActualUtilization.Last()
	demanded, _ := r.DemandedUtilization.Last()
	if demanded.V-actual.V < 0.01 {
		t.Error("no utilization gap left; instance is not underprovisioned")
	}
}

// Fig 4 vs Fig 5 shape: prioritizing large flows raises their utility
// while overall (equal-weight) utility changes little.
func TestShapePrioritization(t *testing.T) {
	base := ringConfig(t, 1500*unit.Kbps)
	plain, err := experiment.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	prio := ringConfig(t, 1500*unit.Kbps)
	prio.LargeWeight = 8
	weighted, err := experiment.Run(context.Background(), prio)
	if err != nil {
		t.Fatal(err)
	}
	largeOf := func(r *experiment.RunResult) float64 {
		last, ok := r.LargeUtility.Last()
		if !ok {
			t.Fatal("no large aggregates in instance")
		}
		return last.V
	}
	if largeOf(weighted) < largeOf(plain) {
		t.Errorf("prioritization lowered large-flow utility: %.4f -> %.4f",
			largeOf(plain), largeOf(weighted))
	}
	// Overall utility on the equal-weight scale must not collapse
	// (paper: "overall utility has not changed a great deal").
	equalWeight := func(r *experiment.RunResult) float64 {
		var sum, flows float64
		for _, a := range r.Matrix.Aggregates() {
			sum += r.Solution.Result.AggUtility[a.ID] * float64(a.Flows)
			flows += float64(a.Flows)
		}
		return sum / flows
	}
	drop := equalWeight(plain) - equalWeight(weighted)
	if drop > 0.05 {
		t.Errorf("overall utility dropped %.4f under prioritization, want small", drop)
	}
}

// Fig 6 shape: relaxing the delay parameter shifts the per-flow delay
// distribution right and does not lower utility.
func TestShapeDelayRelaxation(t *testing.T) {
	base := ringConfig(t, 1500*unit.Kbps)
	orig, err := experiment.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	relCfg := ringConfig(t, 1500*unit.Kbps)
	relCfg.DelayScale = 2
	rel, err := experiment.Run(context.Background(), relCfg)
	if err != nil {
		t.Fatal(err)
	}
	co := metrics.NewCDF(orig.FlowDelayMs)
	cr := metrics.NewCDF(rel.FlowDelayMs)
	// Mean delay should not decrease: longer paths became usable.
	mo := metrics.Summarize(co.Values()).Mean
	mr := metrics.Summarize(cr.Values()).Mean
	if mr < mo-1e-9 {
		t.Errorf("mean delay decreased after relaxation: %.2f -> %.2f ms", mo, mr)
	}
	if rel.Solution.Utility < orig.Solution.Utility-0.01 {
		t.Errorf("utility fell after relaxation: %.4f -> %.4f",
			orig.Solution.Utility, rel.Solution.Utility)
	}
}

// Fig 7 shape: across seeds, FUBAR's final utility dominates shortest
// path everywhere and hugs the upper bound in the provisioned regime.
func TestShapeRepeatability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	cfg := ringConfig(t, 5000*unit.Kbps)
	// Repeatability regenerates traffic from consecutive seeds.
	rep, err := experiment.Repeatability(context.Background(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	fu := rep.Fubar.Values()
	sp := rep.ShortestPath.Values()
	ub := rep.UpperBound.Values()
	for i := range fu {
		if fu[i] < sp[i]-1e-9 {
			t.Errorf("run %d: FUBAR %v below shortest path %v", i, fu[i], sp[i])
		}
		if fu[i] > ub[i]+1e-9 {
			t.Errorf("run %d: FUBAR %v above upper bound %v", i, fu[i], ub[i])
		}
	}
	// Mean within 5% of the bound, far above shortest path.
	mf := metrics.Summarize(fu).Mean
	mu := metrics.Summarize(ub).Mean
	ms := metrics.Summarize(sp).Mean
	if mf < 0.95*mu {
		t.Errorf("mean FUBAR %.4f not close to mean bound %.4f", mf, mu)
	}
	if mf <= ms {
		t.Errorf("mean FUBAR %.4f does not beat shortest path %.4f", mf, ms)
	}
}

// §3 "Running time" shape: the underprovisioned case takes more steps
// than the provisioned one (more links to spread over, longer search).
func TestShapeRunningTime(t *testing.T) {
	prov, err := experiment.Run(context.Background(), ringConfig(t, 5000*unit.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	under, err := experiment.Run(context.Background(), ringConfig(t, 1500*unit.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if under.Solution.Steps <= prov.Solution.Steps {
		t.Errorf("underprovisioned steps %d <= provisioned %d, expected more work",
			under.Solution.Steps, prov.Solution.Steps)
	}
}

// §2.4 shape: the full alternative trio is at least as good as the best
// single-alternative ablation on this instance (the paper's "best
// tradeoff" claim), and escalation never hurts.
func TestShapeAblations(t *testing.T) {
	run := func(opts core.Options) *core.Solution {
		cfg := ringConfig(t, 1500*unit.Kbps)
		cfg.Options = opts
		r, err := experiment.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Solution
	}
	full := run(core.Options{})
	noEsc := run(core.Options{DisableEscalation: true})
	if full.Utility < noEsc.Utility-1e-9 {
		t.Errorf("escalation hurt: %v < %v", full.Utility, noEsc.Utility)
	}
	for _, mode := range []core.AltMode{core.AltGlobalOnly, core.AltLocalOnly, core.AltLinkLocalOnly} {
		sol := run(core.Options{AltMode: mode})
		if sol.Utility > full.Utility+0.02 {
			t.Errorf("single alternative %v beat the trio by %.4f — trio should be competitive",
				mode, sol.Utility-full.Utility)
		}
	}
}

// The model's congestion marking must agree between baseline and
// optimizer paths (cross-package integration sanity).
func TestShapeBaselineConsistency(t *testing.T) {
	cfg := ringConfig(t, 1500*unit.Kbps)
	topo := cfg.Topology
	tc := *cfg.Traffic
	tc.Seed = cfg.Seed
	mat, err := traffic.Generate(topo, tc)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiment.RunOn(context.Background(), topo, mat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Utility-r.ShortestPath) > 1e-9 {
		t.Errorf("baseline SP %v != experiment initial %v", sp.Utility, r.ShortestPath)
	}
	// FUBAR must sit between shortest path and the bound.
	ubr, err := baseline.UpperBound(topo, mat, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if u := r.Solution.Utility; u < sp.Utility || u > ubr.Mean+1e-9 {
		t.Errorf("FUBAR utility %v outside [shortest path %v, upper bound %v]", u, sp.Utility, ubr.Mean)
	}
}

// Self-pair accounting: a 961-style matrix with self-pairs optimizes to
// the same allocation as one without them (they carry no demand).
func TestShapeSelfPairNeutrality(t *testing.T) {
	topo, err := topology.Ring(8, 4, 2000*unit.Kbps, 3)
	if err != nil {
		t.Fatal(err)
	}
	tc := traffic.DefaultGenConfig(5)
	tc.RealTimeFlows = [2]int{2, 6}
	tc.BulkFlows = [2]int{1, 4}
	tc.IncludeSelfPairs = true
	with, err := traffic.Generate(topo, tc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, with)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Run(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every self-pair ends at utility 1 and no self-pair bundle has edges.
	for _, a := range with.Aggregates() {
		if !a.IsSelfPair() {
			continue
		}
		if u := sol.Result.AggUtility[a.ID]; u != 1 {
			t.Errorf("self-pair %d utility %v, want 1", a.ID, u)
		}
	}
	for _, b := range sol.Bundles {
		if with.Aggregate(b.Agg).IsSelfPair() && len(b.Edges) != 0 {
			t.Error("self-pair bundle routed over the backbone")
		}
	}
}

// Weighted utility definition: the network utility reported by the model
// matches a direct recomputation from per-aggregate utilities (§3 "total
// average ... weighted by number of flows").
func TestShapeUtilityDefinition(t *testing.T) {
	cfg := ringConfig(t, 1500*unit.Kbps)
	r, err := experiment.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum, weight float64
	for _, a := range r.Matrix.Aggregates() {
		w := a.Weight * float64(a.Flows)
		sum += r.Solution.Result.AggUtility[a.ID] * w
		weight += w
	}
	want := sum / weight
	if math.Abs(want-r.Solution.Utility) > 1e-9 {
		t.Errorf("network utility %v != flow-weighted mean %v", r.Solution.Utility, want)
	}
	_ = utility.ClassBulk // anchor the import for clarity of intent
}
