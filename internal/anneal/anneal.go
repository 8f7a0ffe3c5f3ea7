// Package anneal implements the naive simulated-annealing flow allocator
// that §2.5 of the paper uses as its comparator: FUBAR's move-size
// escalation is "motivated by simulated annealing [9], but we have found
// it gives similar results in a much shorter time than a naive simulated
// annealing solution."
//
// The annealer searches the same state space as the FUBAR optimizer — a
// split of every aggregate's flows across a set of candidate paths — but
// explores it with random Metropolis moves under a geometric cooling
// schedule instead of FUBAR's guided per-congested-link greedy steps. It
// exists so the repository can reproduce that comparison (ablation A4):
// similar final utility, far more model evaluations.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/traffic"
)

// The schedule's constants. The geometric cooling factor is derived from
// them so the schedule reaches minTemp exactly at Options.MaxIterations,
// whatever the iteration budget.
const (
	// pathsPerAggregate is how many lowest-delay candidate paths to
	// pre-generate per aggregate (Yen's algorithm).
	pathsPerAggregate = 8
	// initialTemp is the starting temperature in utility units, a few
	// times the typical utility delta of a single move.
	initialTemp float64 = 0.02
	// minTemp terminates the schedule.
	minTemp float64 = 1e-5
)

// Options tunes a simulated-annealing run. The zero value is usable. A
// run's time bound is its context.
type Options struct {
	// Seed drives all randomness; runs are deterministic given a seed.
	Seed int64
	// MaxIterations caps the number of proposed moves. Default 200000.
	MaxIterations int
}

// Solution is the outcome of a simulated-annealing run.
type Solution struct {
	// Bundles is the final allocation, one bundle per (aggregate, path)
	// with a positive flow count.
	Bundles []flowmodel.Bundle
	// Utility is the network utility of Bundles.
	Utility float64
	// InitialUtility is the all-on-shortest-path starting utility.
	InitialUtility float64
	// Iterations is the number of proposed moves.
	Iterations int
	// Accepted is the number of accepted moves (including uphill).
	Accepted int
	// Uphill is the number of accepted utility-decreasing moves.
	Uphill int
	// Evaluations counts traffic-model evaluations, the comparison
	// currency against FUBAR's step count.
	Evaluations int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// FinalTemp is the temperature at termination.
	FinalTemp float64
}

// state is the annealer's current split for one aggregate.
type aggState struct {
	paths  []graph.Path
	flows  []int
	total  int
	self   bool
	weight float64 // flow volume, used to bias move selection
}

// Annealer holds one run's working state. Construct with New and call
// Run once; a second Run restarts from scratch with the same options.
type Annealer struct {
	model *flowmodel.Model
	// eval is the annealer's private evaluation arena, so an annealer and
	// other evaluators can share one Model concurrently.
	eval *flowmodel.Eval
	mat  *traffic.Matrix
	opts Options
	// cooling is the geometric cooling factor applied every iteration:
	// initialTemp to minTemp over opts.MaxIterations.
	cooling float64

	aggs      []aggState
	movable   []int // aggregate ids with >1 candidate path
	bundleBuf []flowmodel.Bundle
}

// New prepares an annealer over the model's topology and matrix,
// pre-generating each aggregate's candidate paths.
func New(model *flowmodel.Model, opts Options) (*Annealer, error) {
	if model == nil {
		return nil, fmt.Errorf("anneal: nil model")
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 200000
	}
	gen, err := pathgen.New(model.Topology(), pathgen.Policy{})
	if err != nil {
		return nil, err
	}
	mat := model.Matrix()
	a := &Annealer{model: model, eval: model.NewEval(), mat: mat, opts: opts,
		cooling: math.Pow(minTemp/initialTemp, 1/float64(opts.MaxIterations))}
	nA := mat.NumAggregates()
	a.aggs = make([]aggState, nA)
	for i := 0; i < nA; i++ {
		agg := mat.Aggregate(traffic.AggregateID(i))
		st := &a.aggs[i]
		st.total = agg.Flows
		st.weight = float64(agg.Demand())
		if agg.IsSelfPair() {
			st.self = true
			st.paths = []graph.Path{{}}
			st.flows = []int{agg.Flows}
			continue
		}
		paths := gen.KLowestDelay(agg.Src, agg.Dst, pathsPerAggregate)
		if len(paths) == 0 {
			return nil, fmt.Errorf("anneal: no path for aggregate %d (%d->%d)", i, agg.Src, agg.Dst)
		}
		st.paths = paths
		st.flows = make([]int, len(paths))
		st.flows[0] = agg.Flows // all flows on the lowest-delay path
		if len(paths) > 1 {
			a.movable = append(a.movable, i)
		}
	}
	return a, nil
}

// Run executes the annealing schedule under ctx and returns the best
// state seen. Cancellation stops the schedule early (checked every 256
// iterations, like the deadline); the best-so-far solution is returned.
func Run(ctx context.Context, model *flowmodel.Model, opts Options) (*Solution, error) {
	a, err := New(model, opts)
	if err != nil {
		return nil, err
	}
	return a.Run(ctx), nil
}

// Run executes the annealing schedule under ctx (nil means Background).
func (a *Annealer) Run(ctx context.Context) *Solution {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(a.opts.Seed))
	sol := &Solution{}

	a.reset()
	cur := a.evaluate()
	sol.InitialUtility = cur
	sol.Evaluations++

	best := cur
	bestFlows := a.snapshotFlows()

	temp := initialTemp
	for it := 0; it < a.opts.MaxIterations && temp > minTemp && len(a.movable) > 0; it++ {
		if it%256 == 0 && ctx.Err() != nil {
			break
		}
		sol.Iterations++
		ai, from, to, n := a.propose(rng)
		if n == 0 {
			temp *= a.cooling
			continue
		}
		st := &a.aggs[ai]
		st.flows[from] -= n
		st.flows[to] += n
		next := a.evaluate()
		sol.Evaluations++
		delta := next - cur
		if delta >= 0 || rng.Float64() < math.Exp(delta/temp) {
			// Accept.
			sol.Accepted++
			if delta < 0 {
				sol.Uphill++
			}
			cur = next
			if cur > best {
				best = cur
				a.copyFlowsInto(bestFlows)
			}
		} else {
			// Reject: undo.
			st.flows[from] += n
			st.flows[to] -= n
		}
		temp *= a.cooling
	}

	a.restoreFlows(bestFlows)
	sol.Utility = best
	sol.FinalTemp = temp
	sol.Bundles = a.buildBundles(nil)
	sol.Elapsed = time.Since(start)
	sol.Evaluations++ // the final rebuild below
	// Re-evaluate so callers can rely on Utility matching Bundles even
	// after float round-trips.
	res := a.eval.Evaluate(sol.Bundles)
	sol.Utility = res.NetworkUtility
	return sol
}

// propose picks a random (aggregate, from-path, to-path, count) move. The
// aggregate is chosen uniformly from those with more than one candidate
// path; the chunk size is geometric-ish: usually small, occasionally the
// whole remaining bundle, mirroring the "naive" annealer in the paper.
func (a *Annealer) propose(rng *rand.Rand) (agg, from, to, n int) {
	agg = a.movable[rng.Intn(len(a.movable))]
	st := &a.aggs[agg]
	// Pick a source path that actually has flows.
	nonEmpty := 0
	for _, f := range st.flows {
		if f > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return agg, 0, 0, 0
	}
	pick := rng.Intn(nonEmpty)
	from = -1
	for i, f := range st.flows {
		if f > 0 {
			if pick == 0 {
				from = i
				break
			}
			pick--
		}
	}
	to = rng.Intn(len(st.paths) - 1)
	if to >= from {
		to++
	}
	avail := st.flows[from]
	switch r := rng.Float64(); {
	case r < 0.5:
		n = 1 + rng.Intn(max(avail/8, 1))
	case r < 0.9:
		n = 1 + rng.Intn(max(avail/2, 1))
	default:
		n = avail
	}
	if n > avail {
		n = avail
	}
	return agg, from, to, n
}

// reset places every aggregate's flows back on its lowest-delay path.
func (a *Annealer) reset() {
	for i := range a.aggs {
		st := &a.aggs[i]
		for j := range st.flows {
			st.flows[j] = 0
		}
		st.flows[0] = st.total
	}
}

// evaluate rebuilds the bundle set and runs the traffic model.
func (a *Annealer) evaluate() float64 {
	a.bundleBuf = a.buildBundles(a.bundleBuf[:0])
	return a.eval.Evaluate(a.bundleBuf).NetworkUtility
}

// buildBundles appends one bundle per (aggregate, path) with flows > 0.
func (a *Annealer) buildBundles(buf []flowmodel.Bundle) []flowmodel.Bundle {
	topo := a.model.Topology()
	for i := range a.aggs {
		st := &a.aggs[i]
		for j, f := range st.flows {
			if f <= 0 {
				continue
			}
			buf = append(buf, flowmodel.NewBundle(topo, traffic.AggregateID(i), f, st.paths[j]))
		}
	}
	return buf
}

// snapshotFlows copies the current per-aggregate splits.
func (a *Annealer) snapshotFlows() [][]int {
	out := make([][]int, len(a.aggs))
	for i := range a.aggs {
		out[i] = append([]int(nil), a.aggs[i].flows...)
	}
	return out
}

// copyFlowsInto overwrites dst with the current splits (dst must come
// from snapshotFlows).
func (a *Annealer) copyFlowsInto(dst [][]int) {
	for i := range a.aggs {
		copy(dst[i], a.aggs[i].flows)
	}
}

// restoreFlows loads splits captured by snapshotFlows.
func (a *Annealer) restoreFlows(src [][]int) {
	for i := range a.aggs {
		copy(a.aggs[i].flows, src[i])
	}
}
