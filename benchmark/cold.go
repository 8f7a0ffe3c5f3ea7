package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fubar"
)

// cold-scale-s: cold Session.Optimize runs, one fresh session per
// operation, on a fixed scale-s Waxman topology (100 nodes) with a
// 1500-aggregate traffic matrix drawn per operation from --seed. Candidate search (path generation,
// delta scoring, the step pipeline) is nearly all of the work.
var coldWorkload = workload{
	name:  "cold-scale-s",
	setup: setupCold,
}

type coldInstance struct {
	e      env
	preset fubar.ScalePreset
	topo   *fubar.Topology
	first  *coldSession // operation 0's session, built during set-up
}

// coldSession is one operation's instance: its matrix and fresh session.
type coldSession struct {
	mat  *fubar.Matrix
	sess *fubar.Session
	tr   *optTracer
}

func setupCold(e env) (instance, error) {
	preset, err := fubar.ScalePresetByName(e.sz.coldPreset)
	if err != nil {
		return nil, err
	}
	topo, err := preset.Topology(coldTopologySeed)
	if err != nil {
		return nil, err
	}
	c := &coldInstance{e: e, preset: preset, topo: topo}
	c.first, err = c.build(0)
	return c, err
}

// build draws operation i's matrix (the scale presets' own flow-count
// calibration) and wraps it in a fresh session.
func (c *coldInstance) build(i int) (*coldSession, error) {
	cfg := fubar.DefaultGenConfig(subSeed(c.e.seed, i))
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := fubar.SparseTraffic(c.topo, cfg, c.preset.Aggregates)
	if err != nil {
		return nil, err
	}
	cs := &coldSession{mat: mat}
	opts := []fubar.SessionOption{fubar.WithWorkers(c.e.workersSetting())}
	if c.e.rec != nil {
		cs.tr = &optTracer{rec: c.e.rec}
		opts = append(opts, fubar.WithObserver(cs.tr.observe))
	}
	cs.sess, err = fubar.NewSession(c.topo, mat, opts...)
	return cs, err
}

func (c *coldInstance) run(ctx context.Context, lim limit) (*pass, error) {
	p := &pass{laneOps: make([]int, 1)}
	start := time.Now()
	root := noSpan
	if c.e.rec != nil {
		root = c.e.rec.begin("pass", noSpan, 0, start)
	}
	for i := 0; !lim.done(0, i, start); i++ {
		cs := c.first
		if i > 0 {
			var err error
			if cs, err = c.build(i); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sol, err := cs.sess.Optimize(ctx)
		t1 := time.Now()
		if cs.tr != nil {
			cs.tr.optimize(root, int64(i+1), t0, t1)
		}
		p.attempted++
		p.laneOps[0]++
		if err != nil {
			p.fail("optimize %d: %v", i, err)
			continue
		}
		p.latMs = append(p.latMs, ms(t1.Sub(t0)))
		p.utilities = append(p.utilities, sol.Utility)
		p.results = append(p.results, coldResult(i, sol))
		p.unit("cold", p.results[len(p.results)-1])
		p.steps += sol.Steps
		p.candidates += sol.Delta.UtilityOnlyCalls
		p.optimizeWall += sol.Elapsed
		if why := checkSolution(cs, sol); why != "" {
			p.fail("optimize %d: %s", i, why)
		}
		c.e.calibrate(root)
	}
	end := time.Now()
	if c.e.rec != nil {
		c.e.rec.finish(root, end)
	}
	p.wall = end.Sub(start)
	if len(p.latMs) > 0 {
		p.unitWall = time.Duration(p.latMs[0] * float64(time.Millisecond))
		p.unitResults = p.results[:1]
	}
	return p, nil
}

// coldResult is the canonical, wall-clock-free outcome of one cold run.
func coldResult(i int, sol *fubar.Solution) string {
	return fmt.Sprintf("%d u=%016x u0=%016x steps=%d esc=%d bundles=%d stop=%s",
		i, math.Float64bits(sol.Utility), math.Float64bits(sol.InitialUtility),
		sol.Steps, sol.Escalations, len(sol.Bundles), sol.Stop)
}

// checkSolution states what a valid cold solution is without reusing
// the optimizer's incremental paths: it ran to a natural stop, never
// lost utility, places every aggregate's flows exactly once, and a
// fresh full water-filling of its bundles reproduces its utility bit
// for bit.
func checkSolution(cs *coldSession, sol *fubar.Solution) string {
	if !checkUtility(sol.Utility) {
		return fmt.Sprintf("utility %v out of range", sol.Utility)
	}
	if sol.Utility < sol.InitialUtility {
		return fmt.Sprintf("utility %v below the shortest-path start %v", sol.Utility, sol.InitialUtility)
	}
	if sol.Stop != fubar.StopNoCongestion && sol.Stop != fubar.StopLocalOptimum {
		return fmt.Sprintf("stopped early: %s", sol.Stop)
	}
	placed := make([]int, cs.mat.NumAggregates())
	for _, b := range sol.Bundles {
		placed[b.Agg] += b.Flows
	}
	for _, a := range cs.mat.Aggregates() {
		if placed[a.ID] != a.Flows {
			return fmt.Sprintf("aggregate %d places %d of %d flows", a.ID, placed[a.ID], a.Flows)
		}
	}
	if u := cs.sess.Model().NewEval().Evaluate(sol.Bundles).NetworkUtility; u != sol.Utility {
		return fmt.Sprintf("full re-evaluation gives %v, solution says %v", u, sol.Utility)
	}
	return ""
}

// verify re-runs operation 0 at the other worker count on a fresh
// session: the move sequence must be identical.
func (c *coldInstance) verify(ctx context.Context, p *pass) (time.Duration, error) {
	if len(p.results) == 0 {
		return 0, nil
	}
	alt := *c
	alt.e.rec, alt.e.cal = nil, nil
	alt.e.workers = verifyWorkers
	cs, err := alt.build(0)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sol, err := cs.sess.Optimize(ctx)
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if got := coldResult(0, sol); got != p.results[0] {
		p.fail("Workers=%d re-run of operation 0 differs: %s vs %s", alt.e.workers, got, p.results[0])
	}
	return wall, nil
}

func (c *coldInstance) layerInputs() (*fubar.Topology, *fubar.Matrix) { return c.topo, c.first.mat }
func (c *coldInstance) close() error                                  { return nil }
