package flowmodel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fubar/internal/graph"
)

// stepMove is one trial move of an optimizer step: n flows of the bundle at
// from onto its aggregate's entry at to.
type stepMove struct{ from, to, n int }

// movesOff lists every move off link l an optimizer step could try: each
// bundle crossing it with flows, half of them and all of them, onto every
// other routed entry of its aggregate.
func movesOff(bundles []Bundle, l graph.EdgeID) []stepMove {
	var out []stepMove
	for from, b := range bundles {
		if b.Flows <= 0 || !slices.Contains(b.Edges, l) {
			continue
		}
		for to, c := range bundles {
			if to == from || c.Agg != b.Agg || len(c.Edges) == 0 {
				continue
			}
			out = append(out, stepMove{from, to, 1 + b.Flows/2})
			if b.Flows > 1 {
				out = append(out, stepMove{from, to, b.Flows})
			}
		}
	}
	return out
}

// apply moves the flows onto cand and returns the changed indices; undo
// puts them back.
func (mv stepMove) apply(cand []Bundle) []int {
	cand[mv.from].Flows -= mv.n
	cand[mv.to].Flows += mv.n
	return []int{min(mv.from, mv.to), max(mv.from, mv.to)}
}

func (mv stepMove) undo(cand []Bundle) {
	cand[mv.from].Flows += mv.n
	cand[mv.to].Flows -= mv.n
}

// closureEmpty reports whether c shares nothing.
func closureEmpty(c *Closure) bool {
	return len(c.affected)+len(c.subLinks)+len(c.touched)+len(c.order)+len(c.inc) == 0
}

// evalWork is the per-call work an arena reports: re-runs, the affected
// set, and the load check's and fill's decisions.
type evalWork struct{ expansions, affected, checked, resummed, continued, aborted int64 }

func workOf(e *Eval) evalWork {
	s := e.DeltaStats()
	return evalWork{s.Expansions, s.AffectedBundles, e.checked, e.resummed, e.continued, e.aborted}
}

func (w evalWork) minus(o evalWork) evalWork {
	return evalWork{w.expansions - o.expansions, w.affected - o.affected, w.checked - o.checked,
		w.resummed - o.resummed, w.continued - o.continued, w.aborted - o.aborted}
}

// TestStepClosureScoresMatchPerCandidate scores every move off every
// binding link of 50 random instances twice: extending the link's step
// closure, on an arena that stays primed from it across the link's moves,
// and alone, against the empty closure. The scores must agree bit for bit
// and so must the work each call reports — re-runs, affected bundles, links
// load-checked (once each: a closure link the candidate also seeds is
// checked as touched-seed only) and re-summed, lazy hits continued and
// aborted: the closure changes where the sub-problem is built, not what it
// is. Every fourth move's full Result (EvaluateDelta) must match too. A
// non-binding link's closure is empty.
func TestStepClosureScoresMatchPerCandidate(t *testing.T) {
	var scored, shared int64
	for seed := int64(1); seed <= 50; seed++ {
		m, list, _ := deltaInstance(t, seed)
		builder, extend, alone := m.NewEval(), m.NewEval(), m.NewEval()
		var base Base
		builder.EvaluateBase(list, &base)
		cand := slices.Clone(list)
		for l := range m.Topology().NumLinks() {
			link := graph.EdgeID(l)
			c := builder.Closure(&base, link)
			if !base.binding[l] {
				if !closureEmpty(c) {
					t.Fatalf("seed %d: non-binding link %d has a closure of %d bundles, %d links", seed, l, len(c.affected), len(c.subLinks))
				}
				continue
			}
			for _, mv := range movesOff(list, link) {
				changed := mv.apply(cand)
				w0, a0 := workOf(extend), workOf(alone)
				got, fell := extend.EvaluateDeltaUtility(c, cand, changed, math.Inf(-1))
				want, _ := alone.EvaluateDeltaUtility(alone.Closure(&base), cand, changed, math.Inf(-1))
				tag := fmt.Sprintf("seed %d link %d move %+v", seed, l, mv)
				if fell {
					t.Fatalf("%s: fell back to a full evaluation", tag)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: utility %v with the step closure, %v alone", tag, got, want)
				}
				if gw, aw := workOf(extend).minus(w0), workOf(alone).minus(a0); gw != aw {
					t.Fatalf("%s: work %+v with the step closure, %+v alone", tag, gw, aw)
				}
				if scored%4 == 0 { // and every fourth move's full Result
					want := alone.EvaluateDelta(alone.Closure(&base), cand, changed).Clone()
					requireIdentical(t, tag+": Result", want, extend.EvaluateDelta(c, cand, changed))
				}
				mv.undo(cand)
				scored++
				shared += int64(len(c.affected))
			}
		}
	}
	if scored < 1000 || shared == 0 {
		t.Fatalf("scored %d moves sharing %d closure bundles: the instances exercise nothing", scored, shared)
	}
	t.Logf("%d moves, %.1f closure bundles each", scored, float64(shared)/float64(scored))
}

// bestSharedLink returns the binding link of base with the most moves off
// it, and those moves.
func bestSharedLink(m *Model, list []Bundle, base *Base) (graph.EdgeID, []stepMove) {
	var link graph.EdgeID
	var moves []stepMove
	for l := range m.Topology().NumLinks() {
		if !base.binding[l] {
			continue
		}
		if mv := movesOff(list, graph.EdgeID(l)); len(mv) > len(moves) {
			link, moves = graph.EdgeID(l), mv
		}
	}
	return link, moves
}

// TestStepClosureSharedAcrossWorkers scores one step's moves against one
// closure from four goroutines, each on its own arena and claiming moves
// in whatever order the scheduler allows: every score must equal the
// serial one's. Under -race this is where a candidate writing the closure,
// or an arena's priming reaching another's, would show.
func TestStepClosureSharedAcrossWorkers(t *testing.T) {
	m, list := heCrisisInstance(t)
	builder := m.NewEval()
	var base Base
	builder.EvaluateBase(list, &base)
	link, moves := bestSharedLink(m, list, &base)
	if len(moves) < 8 {
		t.Fatalf("link %d has %d moves, want a step with several", link, len(moves))
	}
	c := builder.Closure(&base, link)
	if closureEmpty(c) {
		t.Fatalf("binding link %d has an empty closure", link)
	}
	score := func(e *Eval, cand []Bundle, mv stepMove) float64 {
		changed := mv.apply(cand)
		u, fell := e.EvaluateDeltaUtility(c, cand, changed, math.Inf(-1))
		if fell {
			t.Errorf("move %+v fell back to a full evaluation", mv)
		}
		mv.undo(cand)
		return u
	}
	want := make([]float64, len(moves))
	serial, cand := m.NewEval(), slices.Clone(list)
	for i, mv := range moves {
		want[i] = score(serial, cand, mv)
	}
	got := make([]float64, len(moves))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, cand := m.NewEval(), slices.Clone(list)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(moves) {
					return
				}
				got[i] = score(e, cand, moves[i])
			}
		}()
	}
	wg.Wait()
	for i := range moves {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("move %+v: %v from the workers, %v serially", moves[i], got[i], want[i])
		}
	}
	// The arena that built the closure holds it in its scratch: scoring
	// against it there breaks the contract and falls back, exactly.
	changed := moves[0].apply(cand)
	if u, fell := builder.EvaluateDeltaUtility(c, cand, changed, math.Inf(-1)); !fell || u != want[0] {
		t.Fatalf("the closure's own arena scored %v (fell back %v), want %v from a full evaluation", u, fell, want[0])
	}
}

// BenchmarkStepClosure scores one step — every move off the binding link
// with the most of them — per iteration: extending the link's closure,
// built once per step on a base arena as core builds it (shared), and each
// move alone against the empty closure (alone). Same scores; the
// candidate/ns ratio of the two is what sharing the sub-problem saves.
func BenchmarkStepClosure(b *testing.B) {
	for _, inst := range []struct {
		name  string
		build func(testing.TB) (*Model, []Bundle)
	}{{"he-crisis", heCrisisInstance}, {"ring", ringTenantInstance}} {
		m, list := inst.build(b)
		var base Base
		builder := m.NewEval()
		builder.EvaluateBase(list, &base)
		link, moves := bestSharedLink(m, list, &base)
		for _, shared := range []bool{true, false} {
			name := inst.name + "/alone"
			if shared {
				name = inst.name + "/shared"
			}
			b.Run(name, func(b *testing.B) {
				arena, cand := m.NewEval(), slices.Clone(list)
				b.ReportAllocs()
				for range b.N {
					c := arena.Closure(&base)
					if shared {
						c = builder.Closure(&base, link)
					}
					for _, mv := range moves {
						changed := mv.apply(cand)
						arena.EvaluateDeltaUtility(c, cand, changed, math.Inf(-1))
						mv.undo(cand)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/candidate")
				b.ReportMetric(float64(len(moves)), "candidates/step")
			})
		}
	}
}
