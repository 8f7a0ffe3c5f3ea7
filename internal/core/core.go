// Package core implements FUBAR's flow allocation optimizer — the paper's
// primary contribution (§2.5, Listings 1 and 2).
//
// The optimizer starts with every aggregate on its lowest-delay
// policy-compliant path, evaluates the §2.3 traffic model, and then
// repeatedly relieves the most oversubscribed congested link: for every
// bundle crossing it, it tests moving N flows to each of the three §2.4
// alternative paths (global / local / link-local) and commits the single
// move with the best predicted network utility. When no move improves
// utility it escalates N — moving larger and larger chunks, up to whole
// aggregates — to escape local optima (§2.5, "Escaping local optima");
// when even whole-aggregate moves cannot improve utility, it terminates.
//
// # Serial candidate collection, parallel evaluation
//
// Trial evaluations dominate the runtime: every step tests each
// (aggregate × crossing-bundle × alternative) candidate with a
// water-filling over all bundles. Collection runs on the calling goroutine
// and the optimizer's one path generator: it visits, in ascending order,
// only the aggregates that can have a bundle on the stepped link — the
// base's crossers of it — and lists their §2.4 alternatives. Evaluation
// then fans the candidates out over Options.Workers goroutines (default
// GOMAXPROCS), each owning a private
// flowmodel.Eval arena and a persistent trial buffer, copied from the dense
// committed list once per layout and patched with it on every commit: a
// candidate writes its two patched entries, evaluates, and reverts them
// (patch-and-revert), instead of copying the whole list per candidate or
// per step. Move selection replays the candidates in collection
// order, so the committed move sequence — and thus the whole Solution —
// is identical for any worker count (unless a context deadline truncates
// the run; see Options.Workers).
//
// # Incremental candidate evaluation
//
// A run evaluates one list: one bundle per (aggregate, path-set entry),
// zero-flow placeholders included, so a candidate is a two-entry flow
// patch at fixed indices. A run evaluates the committed allocation in full
// once (flowmodel.Eval.EvaluateBase on the optimizer's base arena), keeps
// that base current across steps (CommitDelta on a commit, RemapBase when
// collection grows a path set), and scores every candidate against the
// shared read-only base: only the sub-problem the move actually perturbs is
// re-filled, whatever share of the list that is. Scoring needs one float
// per candidate, exact only if it can be selected, so it uses the
// utility-only delta mode (EvaluateDeltaUtility — no Result finalization,
// no fold for a certain loser), while the committed move always gets a full
// result. Delta results are bit-identical to full evaluations of the same
// list, so the run commits the exact move sequence of the differential
// oracle, which scores every candidate with a full evaluation of the same
// patched list (fullEvaluation; only tests select it), at any worker count.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/telemetry"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// refutationOff is the differential oracle for both refutation rules (see
// Run): an optimizer bound while it is set enumerates and scores refuted
// bundles as before the rules existed. Only tests set it (export_test.go).
var refutationOff atomic.Bool

// fullEvaluation is the differential oracle for incremental scoring: an
// optimizer bound while it is set keeps no delta base, scores every
// candidate with a full water-filling of its patched list, evaluates each
// commit and the final allocation in full, and walks every aggregate in
// collection. It commits the exact move sequence incremental scoring does.
// Only tests set it (export_test.go).
var fullEvaluation atomic.Bool

// The search parameters, which the paper states as design values, not
// tunables (§2.5).
const (
	// moveFraction is the base fraction of a large aggregate's flows moved
	// per step.
	moveFraction = 0.25
	// smallAggregateFlows: aggregates with at most this many flows move in
	// their entirety (§2.5 "small aggregates are moved in their entirety").
	smallAggregateFlows = 10
	// escalationFactor multiplies the move fraction while stuck in a local
	// optimum (§2.5: the fraction doubles).
	escalationFactor = 2
	// minGain is the smallest network-utility improvement that counts as
	// progress. Gains below it are water-filling noise: committing them lets
	// the greedy crawl forever at +1e-9 per move without visibly changing
	// the solution.
	minGain = 1e-6
)

// AltMode selects which of the §2.4 alternatives the optimizer may test.
// The default (AltAll) is the paper's trio; the others exist for the
// path-choice ablation.
type AltMode uint8

// Alternative-path ablation modes.
const (
	AltAll AltMode = iota
	AltGlobalOnly
	AltLocalOnly
	AltLinkLocalOnly
)

// String names the mode.
func (m AltMode) String() string {
	switch m {
	case AltAll:
		return "all"
	case AltGlobalOnly:
		return "global-only"
	case AltLocalOnly:
		return "local-only"
	case AltLinkLocalOnly:
		return "link-local-only"
	default:
		return "unknown"
	}
}

// Options tunes the optimizer. The zero value is usable: every field has a
// sensible default applied by Run. The §2.5 search parameters (move
// fraction, small-aggregate threshold, escalation factor, minimum gain) are
// constants above, not fields.
type Options struct {
	// Policy constrains generated paths (§2.4 "policy compliant").
	Policy pathgen.Policy
	// MaxPathsPerAggregate bounds each aggregate's path set (§2.4 finds
	// "ten to fifteen" in practice). Default 15.
	MaxPathsPerAggregate int
	// MaxSteps bounds committed moves; 0 means unbounded.
	MaxSteps int
	// Workers is the number of goroutines scoring candidate moves per
	// step, each with a private flowmodel.Eval arena; collection runs on
	// the calling goroutine at any value. Default GOMAXPROCS; 1 scores
	// serially on the calling goroutine too. Any value commits
	// the exact move sequence of Workers=1 — except when the run's
	// context deadline truncates it, since faster workers then fit more
	// steps before the cutoff (a deadline makes even two Workers=1 runs
	// machine-dependent).
	Workers int
	// AltMode restricts the alternative trio (ablation only).
	AltMode AltMode
	// DisableEscalation turns off §2.5 escalation (ablation only): the
	// optimizer then terminates at the first local optimum.
	DisableEscalation bool
	// Trace, if set, receives a snapshot after the initial evaluation and
	// after every committed move. Snapshots share the optimizer's result
	// storage: copy anything retained beyond the callback. Trace is
	// invoked from the goroutine that called Run — never from a worker —
	// so a callback may read plain (non-atomic) state it owns.
	Trace func(Snapshot)
	// Telemetry, if set, receives live metrics (step/candidate counters,
	// delta-evaluation activity, step and proof wall time) and
	// step span events. Instrumentation is atomic-counter cheap, never
	// influences control flow, and is skipped entirely when nil.
	Telemetry *telemetry.Telemetry
}

func (o Options) withDefaults() Options {
	if o.MaxPathsPerAggregate <= 0 {
		o.MaxPathsPerAggregate = 15
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Snapshot is a progress report delivered to Options.Trace.
type Snapshot struct {
	// Step counts committed moves so far (0 = initial shortest-path
	// allocation).
	Step int
	// Elapsed is wall-clock time since Run started.
	Elapsed time.Duration
	// Escalation is the escalation level the reported move was committed
	// at (0 = base move size; always 0 for the initial snapshot).
	Escalation int
	// Result is the model evaluation of the current allocation. Shared
	// storage — valid only during the callback.
	Result *flowmodel.Result
}

// StopReason explains why optimization ended.
type StopReason uint8

// Stop reasons.
const (
	// StopNoCongestion: every link uncongested — the solution is optimal
	// (all flows satisfied on their lowest-delay compliant paths).
	StopNoCongestion StopReason = iota
	// StopLocalOptimum: congestion remains but no move — even at maximum
	// escalation — improves utility.
	StopLocalOptimum
	// StopMaxSteps: Options.MaxSteps reached.
	StopMaxSteps
	// StopDeadline: the run's context deadline reached.
	StopDeadline
	// StopCancelled: the run's context was cancelled. The partial
	// solution is still returned — deterministic up to the cancellation
	// point, which is itself wall-clock-dependent.
	StopCancelled
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopNoCongestion:
		return "no-congestion"
	case StopLocalOptimum:
		return "local-optimum"
	case StopMaxSteps:
		return "max-steps"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Solution is the outcome of a Run.
type Solution struct {
	// Bundles is the final allocation: one bundle per (aggregate, path)
	// with a positive flow count.
	Bundles []flowmodel.Bundle
	// Result is the model evaluation of Bundles (deep copy, caller owns).
	Result *flowmodel.Result
	// Utility is Result.NetworkUtility, for convenience.
	Utility float64
	// InitialUtility is the shortest-path allocation's utility — the
	// paper's "shortest path" reference line.
	InitialUtility float64
	// Steps is the number of committed moves.
	Steps int
	// Escalations counts how many times the move size was escalated.
	Escalations int
	// Elapsed is total optimization wall time.
	Elapsed time.Duration
	// Stop explains termination.
	Stop StopReason
	// PathsPerAggregate is the mean path-set size at termination.
	PathsPerAggregate float64
	// Delta aggregates the incremental-evaluation counters of every
	// worker arena: calls, expansions and affected-set sizes (Fallbacks
	// counts contract violations: 0 in a correct run).
	Delta flowmodel.DeltaStats
	// Base counts how each step's delta base was obtained — the
	// persistent-base bookkeeping.
	Base BaseStats
	// ListBuilds counts how often the run built its bundle list: once for
	// the initial evaluation, then once per step whose collection appended
	// a path to a set. Every other step, and every commit, patches the list
	// in place. Identical at any Workers.
	ListBuilds int
	// Paths counts how the run's path lookups were answered — memo,
	// donor, tree or search — by the optimizer's one generator. Identical
	// at any Workers.
	Paths pathgen.Stats
	// RefutedBundles counts the (step, bundle) pairs collection did not
	// enumerate because a failed step had already scored the bundle's
	// candidates (see Run): it also crosses a link whose step failed in the
	// same pass, or — RefutedByLevel, a share of the total — its move size
	// is what it was at the escalation level below. 0 on a run that never
	// fails a step; identical at any worker count.
	RefutedBundles int
	RefutedByLevel int
}

// BaseStats counts how the per-step delta base snapshots were produced.
// Captures are full evaluations; every other row is base reuse that
// eliminated one. The base follows the run's one list, whose layout
// changes only when collection appends a path to a set.
type BaseStats struct {
	// Captures counts fresh EvaluateBase runs (full evaluations).
	Captures int `json:"captures"`
	// Remaps counts steps that found a path set grown since the base's
	// layout and inserted the new entries' placeholders into it
	// (RemapBase), with no evaluation.
	Remaps int `json:"remaps"`
	// Skips counts scored steps whose collection appended no path — the
	// common case — needing no work at all: the list and the base are the
	// committed allocation's already, so nothing is rebuilt, copied or
	// compared.
	Skips int `json:"skips"`
	// Rebases counts committed moves folded into the base in place;
	// Recaptures counts commits whose delta fell back to a full
	// evaluation (a contract violation: none in a correct run).
	Rebases    int `json:"rebases"`
	Recaptures int `json:"recaptures"`
	// FinalFromBase counts final-allocation evaluations materialized
	// from the live base (Eval.ResultFromBase) instead of a fresh full
	// evaluation: 1 on every run.
	FinalFromBase int `json:"final_from_base"`
}

// aggState tracks one aggregate's path set and flow split.
type aggState struct {
	set    pathgen.PathSet
	flows  []int // parallel to set.Paths()
	delays []unit.Delay
	total  int // total flows (invariant: sum(flows) == total)
	self   bool
}

// Optimizer runs FUBAR on one topology + traffic matrix. Construct with
// New; every Run restarts from scratch, and Rebind moves the optimizer —
// generator, arenas, base and scratch — to the next instance.
type Optimizer struct {
	model *flowmodel.Model
	gen   *pathgen.Generator
	mat   *traffic.Matrix
	opts  Options

	aggs []aggState
	// inertAggs lists, ascending, the run's routed aggregates whose
	// per-flow demand is 0: their bundles cross no link in a base (see
	// walkAggs). Built once per Run; usually empty.
	inertAggs []int32
	// denseBuf is the run's one bundle list: one bundle per (aggregate,
	// path-set entry), zero-flow placeholders included, and one per
	// self-pair. denseSeg[i] is the offset of aggregate i's segment
	// (denseSeg[len(aggs)] == len(denseBuf)), so entry (i, p) sits at
	// denseSeg[i]+p and every candidate is a two-entry flow patch at a
	// stable index. Run's initial evaluation builds it; after that it is
	// rebuilt only by a step whose collection appended a path, and a
	// commit patches its two entries in place. prevSeg is the layout the
	// last rebuild replaced — the base's until prepareBase carries it over.
	denseBuf []flowmodel.Bundle
	denseSeg []int
	prevSeg  []int
	// listBuilds counts the run's buildStepBundles calls (Solution.ListBuilds).
	listBuilds int
	// baseEval is the arena of the optimizer's own full evaluations and of
	// its delta base; base is the captured snapshot the candidate deltas
	// splice from, read-only while workers run. The base captures the
	// committed allocation from Run's initial evaluation to its last step,
	// over denseSeg's layout: committed moves are folded in with
	// CommitDelta and the paths collection appends are inserted with
	// RemapBase, so a step pays a full base evaluation only when RemapBase
	// refuses.
	baseEval *flowmodel.Eval
	base     *flowmodel.Base
	// oldIdxBuf is the remap-translation scratch.
	oldIdxBuf []int
	// repair is RepairWarmStart's scratch, its output list included;
	// covered is applyWarmStart's per-aggregate flow tally.
	repair    repairScratch
	covered   []int
	baseStats BaseStats

	// denseGen counts buildStepBundles calls — layouts; workers compare it
	// against their syncGen to decide whether their persistent trial buffer
	// still mirrors the committed dense list (patch-and-revert; commit
	// patches synced buffers along with denseBuf) or must resync with one
	// full copy.
	denseGen uint64

	// scratch
	// congAsc is the step's congested links in ascending order — the form
	// the path generator keys exclusion sets by — sorted once per
	// collection.
	congAsc []graph.EdgeID
	cands   []candidate
	// walk is the step's aggregates to collect from, ascending (walkAggs).
	walk []int32
	// usedStamp[e] == usedEpoch marks links the aggregate alternativesFor
	// looks up uses; bumping the epoch invalidates all marks without an
	// O(numLinks) clear. congUsed is that aggregate's congested ∩ used
	// links, ascending, and alts its de-duplicated alternatives; crossBuf is
	// crossingPaths' answer. Each is valid until the call that fills it runs
	// again.
	usedStamp []uint32
	usedEpoch uint32
	congUsed  []graph.EdgeID
	alts      []graph.Path
	crossBuf  []int

	// refutedStamp[l] == passEpoch marks link l as one whose step failed in
	// the current pass: every candidate of every positive-flow bundle
	// crossing it scored at most uInit + minGain against the allocation the
	// pass still holds (see Run). One stamp per link, no per-candidate
	// storage; bumping the epoch per pass invalidates all of them without an
	// O(numLinks) clear. Written by Run between steps only. refutedAny says
	// whether the pass has stamped a link yet — the first step of every pass
	// skips the check entirely.
	refutedStamp []uint32
	passEpoch    uint32
	refutedAny   bool
	// prevFraction is the move fraction of the escalation level below: of
	// the pass that failed on every congested link with no commit since, 0
	// when there is none. A bundle whose moveSize is the same at both levels
	// was scored there as the same candidates (see Run).
	prevFraction float64
	// skipRefuted is false only under the test-only differential oracle
	// (refutationOff), which enumerates and scores refuted bundles as
	// before either rule existed; afterScoring, when a test sets it, sees
	// every step's scored candidates and the utility one must exceed to be
	// selected — on an oracle optimizer, the refuted bundles' among them.
	skipRefuted  bool
	afterScoring func(cands []candidate, bound float64)
	// fullEval is set only under the test-only differential oracle for
	// incremental scoring (fullEvaluation): the run keeps no base and
	// evaluates every candidate, commit and final allocation in full.
	fullEval bool
	// candidates, refutedLink and refutedLevel are the run's totals of
	// candidates collected and of bundles skipped as refuted, by either rule.
	candidates   int
	refutedLink  int
	refutedLevel int

	// workers are the persistent trial evaluators, one arena + bundle
	// buffer each, grown on demand up to Options.Workers.
	workers []*worker

	// probe, when set (RunCandidateBench), replaces the candidate scoring
	// call so instrumentation can time/verify the evaluation strategies on
	// the exact trial lists and base the optimizer produces (base is nil
	// under the full-evaluation oracle); bound is the one the candidate
	// would be scored
	// against.
	probe func(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, bound float64) float64

	// tm/tracer are the live-metrics handles built from
	// Options.Telemetry (nil when telemetry is off); pubDelta is the
	// portion of the workers' cumulative DeltaStats already folded into
	// the registry, so each step publishes only the diff; pubPaths
	// likewise for the generator's lookup counters.
	tm       *telemetry.CoreMetrics
	tracer   *telemetry.Tracer
	pubDelta flowmodel.DeltaStats
	pubPaths pathgen.Stats
}

// worker is one candidate evaluator: a private flowmodel arena plus the
// scratch it assembles trial bundle lists into. buf persists across
// candidates and steps: once synced to the dense list's layout (syncGen ==
// Optimizer.denseGen) every candidate writes its two patched entries,
// evaluates, and reverts them, and every commit patches it like the list,
// instead of re-copying the whole list.
type worker struct {
	eval    *flowmodel.Eval
	buf     []flowmodel.Bundle
	syncGen uint64
	changed [2]int // delta changed-index scratch (from, to dense indices)
}

// New builds an optimizer.
func New(model *flowmodel.Model, opts Options) (*Optimizer, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	gen, err := pathgen.New(model.Topology(), opts.Policy)
	if err != nil {
		return nil, err
	}
	o := &Optimizer{gen: gen}
	if err := o.Rebind(model, opts); err != nil {
		return nil, err
	}
	return o, nil
}

// Rebind points the optimizer at another instance — the next epoch of a
// replay, whose links failed or recovered and whose matrix moved — keeping
// what New and the runs since built: the path generator with its memo
// and trees (pathgen.Generator.Retarget), the worker and base arenas
// (flowmodel.Eval.Rebind), the base and every scratch list. The next
// Run starts from the new model exactly as a fresh optimizer's would: none
// of what is kept carries a result across — a memo answer is its search's
// answer, and a run rewrites its arenas and re-captures its base before it
// reads them. On error the optimizer is left bound as it was.
func (o *Optimizer) Rebind(model *flowmodel.Model, opts Options) error {
	if model == nil {
		return fmt.Errorf("core: nil model")
	}
	opts = opts.withDefaults()
	topo, mat := model.Topology(), model.Matrix()
	// What outlives a run must not grow with the number of runs: past a
	// path set's worth of entries per aggregate, a generator starts over.
	keep := mat.NumAggregates() * opts.MaxPathsPerAggregate
	if err := o.gen.Retarget(topo, opts.Policy); err != nil {
		return err
	}
	o.gen.Trim(keep)
	for _, w := range o.workers {
		w.eval.Rebind(model)
	}
	if o.baseEval != nil {
		o.baseEval.Rebind(model)
	}
	if len(o.refutedStamp) != topo.NumLinks() {
		o.refutedStamp = make([]uint32, topo.NumLinks())
		o.usedStamp = make([]uint32, topo.NumLinks())
	}
	o.skipRefuted = !refutationOff.Load()
	o.fullEval = fullEvaluation.Load()
	o.model, o.mat, o.opts = model, mat, opts
	o.tm, o.tracer = nil, nil
	if opts.Telemetry != nil {
		o.tm = opts.Telemetry.Core()
		o.tracer = opts.Telemetry.Tracer
	}
	return nil
}

// Run executes Listing 1 from the all-on-lowest-delay placement and
// returns the solution; it is RunWarm(ctx, nil).
func (o *Optimizer) Run(ctx context.Context) (*Solution, error) {
	return o.RunWarm(ctx, nil)
}

// RunWarm executes Listing 1 warm-started from initial instead of Listing
// 1 line 1's all-on-lowest-delay placement (nil) — the incremental
// re-optimization an offline controller runs when demand or topology
// shifts under an installed solution. initial must cover every
// aggregate's flows exactly. Its paths are accepted as-is (they are
// installed state, even if the current Policy would no longer generate
// them); new alternatives remain policy-compliant, so non-compliant
// warm-start paths can only drain. The worker arenas, path generator and
// scratch persist across calls — the shape a long-lived Session keeps.
//
// The context is the run's only time bound, honored at candidate-batch
// granularity: it is checked before every step's candidate evaluation,
// never inside one, so the committed move sequence is deterministic up to
// the cancellation point. A context whose deadline expired stops the run
// with StopDeadline (best-so-far solution published); a cancelled context
// stops it with StopCancelled. Neither is an error — the partial solution
// is returned either way.
func (o *Optimizer) RunWarm(ctx context.Context, initial []flowmodel.Bundle) (*Solution, error) {
	sol := new(Solution)
	if err := o.run(ctx, initial, sol, true); err != nil {
		return nil, err
	}
	return sol, nil
}

// RunWarmInto is RunWarm writing the solution into sol, whose storage it
// reuses: Bundles and Result's slices are rebuilt in place, so what a
// previous run left there is overwritten. Bundles' Edges are not copied:
// they share the optimizer's path sets, read-only like every path the
// generator hands out and never rewritten, so they stay valid however long
// they are kept. What a replay epoch runs: the engine keeps one Solution
// for all of its epochs and hands none of it out.
func (o *Optimizer) RunWarmInto(ctx context.Context, initial []flowmodel.Bundle, sol *Solution) error {
	return o.run(ctx, initial, sol, false)
}

// run is the one run path behind RunWarm and RunWarmInto: Listing 1 from
// initial, its solution written into sol — with Edges of its own when own
// is set, sharing the path sets' otherwise.
func (o *Optimizer) run(ctx context.Context, initial []flowmodel.Bundle, sol *Solution, own bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	// Run restarts from scratch, including when a Session reuses this
	// optimizer: the initial evaluation re-captures the base, and the
	// per-run counters must not accumulate across calls (the generator's
	// memo may).
	o.gen.ResetStats()
	// A cold run asks for about two answers an aggregate: its lowest-delay
	// path and, for the congested, alternatives. Sized by the first run,
	// not by New, so that building a session stays cheap.
	o.gen.Reserve(2 * o.mat.NumAggregates())
	if err := o.initAllocation(initial); err != nil {
		return err
	}
	o.baseStats = BaseStats{}
	for _, w := range o.workers {
		w.eval.ResetDeltaStats()
	}
	o.pubDelta = flowmodel.DeltaStats{}
	o.pubPaths = pathgen.Stats{}
	o.candidates, o.refutedLink, o.refutedLevel, o.prevFraction = 0, 0, 0, 0
	o.listBuilds = 0
	// parent is the span this run's step and proof spans hang under: the
	// replay epoch's, or a Session.Optimize's root.
	var parent telemetry.Span
	if o.tm != nil {
		o.tm.Runs.Inc()
		parent = telemetry.SpanOf(ctx)
	}
	// The initial evaluation doubles as the base capture:
	// EvaluateBase returns exactly what Evaluate would (the capture is a
	// copy-out, not different math), and every step then carries it over
	// instead of paying its own EvaluateBase — so a run's capture count is
	// the initial evaluation itself, nothing more. The base arena and the
	// base are built by the first run, and then live as long as the
	// optimizer: every run's first evaluation overwrites what the last left.
	if o.baseEval == nil {
		o.baseEval, o.base = o.model.NewEval(), &flowmodel.Base{}
	}
	var res *flowmodel.Result
	if !o.fullEval {
		res = o.captureBase(o.buildStepBundles())
	} else {
		res = o.baseEval.Evaluate(o.buildStepBundles())
	}
	initialUtility := res.NetworkUtility
	steps, escal := 0, 0
	fraction := moveFraction
	escLevel := 0
	o.trace(Snapshot{Step: 0, Elapsed: time.Since(start), Result: res})

	// Snapshot what the pass loop needs by value: trial evaluations run
	// on private worker arenas and leave res alone, but res lives on the
	// base arena, which the next commit reuses, so its contents are only
	// meaningful immediately after they are produced. links is freshly
	// allocated by
	// CongestedByOversubscription, so it cannot alias arena storage, and
	// its sorted order is what alternativesFor's most-congested pick
	// relies on.
	uCur := res.NetworkUtility
	links := o.model.CongestedByOversubscription(res)
	// stuck marks where the passes since the last commit began: what the
	// proof of a local optimum is charged, should the run end in one.
	var stuck workMark

	// ctxStop classifies a Done context; zero means keep running.
	ctxStop := func() StopReason {
		if err := ctx.Err(); err != nil {
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				return StopDeadline
			}
			return StopCancelled
		}
		return 0
	}

	var stop StopReason
loop:
	for {
		if len(links) == 0 {
			stop = StopNoCongestion
			break
		}
		if o.opts.MaxSteps > 0 && steps >= o.opts.MaxSteps {
			stop = StopMaxSteps
			break
		}
		if stop = ctxStop(); stop != 0 {
			break
		}
		// Listing 1 lines 4-9: walk congested links by oversubscription;
		// the first link whose step() makes progress ends the pass.
		//
		// A failed step is a proof: every candidate of every positive-flow
		// bundle crossing its link scored at most uCur + minGain. Until the
		// pass ends, the committed allocation, links, fraction, every path
		// set's membership (the failed step added what could be added) and
		// every generator answer stay what that step saw, and a bundle's
		// candidates do not depend on which of its links is being stepped —
		// so a later link of the pass skips the bundles that also cross a
		// failed one (crossingPaths). They could only lose again: the
		// committed move, and so the whole Solution, is the one the full
		// enumeration picks. The proof needs that a pass ends at its first
		// commit: a step that ran after a commit in the same pass would
		// read stamps proved against an allocation that has moved. The
		// epoch bump below drops the stamps when fraction or the allocation
		// changes.
		//
		// A failed pass is a proof too: it scored or refuted every
		// positive-flow bundle on every congested link. An escalation changes
		// fraction and nothing else, and fraction reaches a candidate only
		// through moveSize — so a bundle whose move size is what it was at
		// prevFraction has the same (agg, from, to, n) candidates, which score
		// the same bits and lose again: the escalated pass collects only the
		// bundles whose n grew (crossingPaths). The proof needs prevFraction
		// zeroed at every commit. DESIGN.md "What a failed step proves".
		var committed *flowmodel.Result
		pass := o.mark()
		if escLevel == 0 {
			stuck = pass
		}
		o.passEpoch++
		if o.passEpoch == 0 { // epoch wrapped: old stamps would alias it
			clear(o.refutedStamp)
			o.passEpoch = 1
		}
		o.refutedAny = false
		for _, link := range links {
			if stop = ctxStop(); stop != 0 {
				break loop
			}
			var err error
			if committed, err = o.step(link, uCur, links, fraction); err != nil {
				return err
			}
			if committed != nil {
				break
			}
			o.refutedStamp[link] = o.passEpoch
			o.refutedAny = true
		}
		if committed != nil {
			steps++
			committedAt := escLevel
			fraction = moveFraction // de-escalate on progress
			escLevel = 0
			o.prevFraction = 0 // the allocation moved: nothing is refuted
			res = committed
			uCur = res.NetworkUtility
			links = o.model.CongestedByOversubscription(res)
			o.trace(Snapshot{Step: steps, Elapsed: time.Since(start), Escalation: committedAt, Result: res})
			if o.tm != nil {
				o.tm.Steps.Inc()
				o.tm.StepSeconds.Observe(time.Since(pass.at).Seconds())
				o.publishDeltaStats()
				// candidates and refuted are the committing pass's, failed
				// links included — what the span's wall time paid for.
				o.tracer.Emit("core.step", pass.at, parent.Child(o.tracer.NewID()),
					telemetry.Int(telemetry.KeyStep, steps), telemetry.Float(telemetry.KeyUtility, uCur),
					telemetry.Int(telemetry.KeyCongested, len(links)),
					telemetry.Int(telemetry.KeyEscalation, committedAt),
					telemetry.Int(telemetry.KeyCandidates, o.candidates-pass.cands),
					telemetry.Int(telemetry.KeyRefuted, o.refutedLink-pass.link+o.refutedLevel-pass.level),
					telemetry.Int(telemetry.KeyRefutedLevel, o.refutedLevel-pass.level))
			}
			continue
		}
		// Local optimum (§2.5): escalate the move size; give up once even
		// whole-aggregate moves fail. The allocation did not change, so
		// the uCur/links snapshot stays valid.
		if o.opts.DisableEscalation || fraction >= 1 {
			stop = StopLocalOptimum
			break loop
		}
		o.prevFraction = fraction
		fraction *= escalationFactor
		if fraction > 1 {
			fraction = 1
		}
		escLevel++
		escal++
		if o.tm != nil {
			o.tm.Escalations.Inc()
		}
	}
	if o.tm != nil {
		o.publishDeltaStats() // fold in the final (uncommitted) step's activity
		if stop == StopLocalOptimum {
			// The passes that proved the optimum committed nothing, so no
			// core.step covers them: all of a quiet epoch's optimizer time.
			o.tm.ProofSeconds.Observe(time.Since(stuck.at).Seconds())
			o.tracer.Emit("core.proof", stuck.at, parent.Child(o.tracer.NewID()),
				telemetry.Int(telemetry.KeyPasses, escLevel+1),
				telemetry.Int(telemetry.KeyCandidates, o.candidates-stuck.cands),
				telemetry.Int(telemetry.KeyRefutedLink, o.refutedLink-stuck.link),
				telemetry.Int(telemetry.KeyRefutedLevel, o.refutedLevel-stuck.level))
		}
	}

	final := o.finalResult()
	bundles := o.compact(final, sol.Bundles, own)
	kept := sol.Result
	if kept == nil {
		kept = new(flowmodel.Result)
	}
	*sol = Solution{
		Bundles:        bundles,
		Result:         final.CloneInto(kept),
		Utility:        final.NetworkUtility,
		InitialUtility: initialUtility,
		Steps:          steps,
		Escalations:    escal,
		Elapsed:        time.Since(start),
		Stop:           stop,
		RefutedBundles: o.refutedLink + o.refutedLevel,
		RefutedByLevel: o.refutedLevel,
		ListBuilds:     o.listBuilds,
	}
	for _, w := range o.workers {
		sol.Delta.Add(w.eval.DeltaStats())
	}
	sol.Base = o.baseStats
	sol.Paths = o.gen.Stats()
	var totalPaths int
	nonSelf := 0
	for _, a := range o.aggs {
		if a.self {
			continue
		}
		totalPaths += a.set.Len()
		nonSelf++
	}
	if nonSelf > 0 {
		sol.PathsPerAggregate = float64(totalPaths) / float64(nonSelf)
	}
	return nil
}

// initAllocation puts every aggregate's flows on its lowest-delay path
// (Listing 1 line 1), or restores the warm-start allocation initial when
// it is not nil. The per-aggregate storage — path set, flow
// split, delays — is the last run's, rewritten from empty: a re-bound
// optimizer whose matrix moved grows it by the aggregates that are new.
func (o *Optimizer) initAllocation(initial []flowmodel.Bundle) error {
	n := o.mat.NumAggregates()
	if n > cap(o.aggs) {
		grown := make([]aggState, n)
		copy(grown, o.aggs[:cap(o.aggs)])
		carveAggs(grown[cap(o.aggs):], o.opts.MaxPathsPerAggregate)
		o.aggs = grown
	}
	o.aggs = o.aggs[:n]
	o.inertAggs = o.inertAggs[:0]
	for i := 0; i < n; i++ {
		a := o.mat.Aggregate(traffic.AggregateID(i))
		st := &o.aggs[i]
		st.total, st.self = a.Flows, a.IsSelfPair()
		st.flows, st.delays = st.flows[:0], st.delays[:0]
		if st.self {
			continue
		}
		if a.DemandPerFlow() == 0 {
			o.inertAggs = append(o.inertAggs, int32(i))
		}
		p, ok := o.gen.LowestDelay(a.Src, a.Dst)
		if !ok {
			return fmt.Errorf("core: no policy-compliant path for aggregate %d (%s->%s)",
				a.ID, o.model.Topology().NodeName(a.Src), o.model.Topology().NodeName(a.Dst))
		}
		st.set.Reset(o.opts.MaxPathsPerAggregate)
		st.set.Add(p)
		st.flows = append(st.flows, a.Flows)
		st.delays = append(st.delays, o.model.Topology().PathDelay(p))
	}
	if initial != nil {
		return o.applyWarmStart(initial)
	}
	return nil
}

// carveAggs gives each new aggregate state its first path, flow and delay
// in three arrays shared by all of them — four in five aggregates of a cold
// scale-s run never hold a second path — so that a fresh optimizer's
// per-aggregate state is three allocations, not a few per aggregate. Each
// window ends at its capacity: a state that outgrows it appends into an
// array of its own and never into its neighbour's.
func carveAggs(fresh []aggState, limit int) {
	paths := make([]graph.Path, len(fresh))
	flows := make([]int, len(fresh))
	delays := make([]unit.Delay, len(fresh))
	for i := range fresh {
		fresh[i].set = pathgen.NewPathSet(limit, paths[i:i:i+1])
		fresh[i].flows, fresh[i].delays = flows[i:i:i+1], delays[i:i:i+1]
	}
}

// applyWarmStart overlays an existing allocation on the freshly
// initialized state: each bundle's path joins its aggregate's path set
// and receives the bundle's flows; the lowest-delay path stays in the
// set (possibly at zero flows) so the trio search behaves as usual.
func (o *Optimizer) applyWarmStart(bundles []flowmodel.Bundle) error {
	topo := o.model.Topology()
	o.covered = slices.Grow(o.covered[:0], len(o.aggs))[:len(o.aggs)]
	covered := o.covered
	clear(covered)
	// Zero the default placement before overlaying.
	for i := range o.aggs {
		st := &o.aggs[i]
		if st.self {
			continue // self-pairs carry no routed state to cover
		}
		for j := range st.flows {
			st.flows[j] = 0
		}
	}
	for _, b := range bundles {
		if int(b.Agg) < 0 || int(b.Agg) >= len(o.aggs) {
			return fmt.Errorf("core: warm start references unknown aggregate %d", b.Agg)
		}
		if b.Flows < 0 {
			return fmt.Errorf("core: warm start bundle with negative flows on aggregate %d", b.Agg)
		}
		st := &o.aggs[b.Agg]
		if st.self {
			continue // self-pairs have no routed state
		}
		if b.Flows == 0 {
			continue
		}
		a := o.mat.Aggregate(b.Agg)
		p := graph.Path{Edges: b.Edges}
		if err := p.Validate(topo.Graph(), a.Src, a.Dst); err != nil {
			return fmt.Errorf("core: warm start path for aggregate %d: %w", b.Agg, err)
		}
		idx := st.set.IndexOf(p)
		if idx < 0 {
			if !st.set.Add(p) {
				return fmt.Errorf("core: warm start for aggregate %d exceeds path-set limit %d",
					b.Agg, o.opts.MaxPathsPerAggregate)
			}
			idx = st.set.Len() - 1
			st.flows = append(st.flows, 0)
			st.delays = append(st.delays, topo.PathDelay(p))
		}
		st.flows[idx] += b.Flows
		covered[b.Agg] += b.Flows
	}
	for i, c := range covered {
		if !o.aggs[i].self && c != o.aggs[i].total {
			return fmt.Errorf("core: warm start covers %d flows of aggregate %d, want %d",
				c, i, o.aggs[i].total)
		}
	}
	return nil
}

// buildStepBundles assembles the run's one list from the current
// allocation — one bundle per (aggregate, path-set entry), zero-flow
// entries included, and one per self-pair — recording each aggregate's
// segment offset in o.denseSeg, so entry (a, p) sits at denseSeg[a]+p. A
// candidate move then patches the Flows of two entries at fixed indices
// instead of reshaping the list, which is what lets the delta evaluator map
// candidate bundles onto base bundles one-to-one. Zero-flow placeholders
// are inert in the traffic model (no weight, no demand, no link
// contributions) and every sum runs in index order, so the list evaluates
// to exactly what its positive entries alone would. The layout it replaces
// moves to o.prevSeg, for remapBase.
func (o *Optimizer) buildStepBundles() []flowmodel.Bundle {
	n := 0
	for i := range o.aggs {
		if o.aggs[i].self {
			n++
		} else {
			n += len(o.aggs[i].flows)
		}
	}
	if cap(o.denseBuf) < n {
		// The base's per-bundle arrays take the same headroom, so both
		// re-allocate at the same list length, every few dozen steps.
		o.denseBuf = make([]flowmodel.Bundle, 0, flowmodel.GrowCap(n))
	}
	clear(o.denseBuf[min(n, len(o.denseBuf)):]) // a shorter list keeps no dropped path alive
	o.denseBuf = o.denseBuf[:0]
	o.prevSeg, o.denseSeg = o.denseSeg, o.prevSeg
	if cap(o.denseSeg) < len(o.aggs)+1 {
		o.denseSeg = make([]int, len(o.aggs)+1)
	}
	o.denseSeg = o.denseSeg[:len(o.aggs)+1]
	for i := range o.aggs {
		o.denseSeg[i] = len(o.denseBuf)
		st := &o.aggs[i]
		if st.self {
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg: traffic.AggregateID(i), Flows: st.total,
			})
			continue
		}
		for pi, f := range st.flows {
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg:   traffic.AggregateID(i),
				Flows: f,
				Edges: st.set.Path(pi).Edges,
				Delay: st.delays[pi],
			})
		}
	}
	o.denseSeg[len(o.aggs)] = len(o.denseBuf)
	o.listBuilds++
	if o.tm != nil {
		o.tm.ListBuilds.Inc()
	}
	// A new layout invalidates every worker's synced trial buffer.
	o.denseGen++
	return o.denseBuf
}

// finalResult evaluates the final allocation, the run's list — with the
// placeholders of any path appended after the last commit. The base
// captures it, so the Result materializes from the base with no
// water-filling at all. Under the full-evaluation oracle it is a full
// evaluation of the list
// on the base arena. Both are bit-identical by the CommitDelta/RemapBase
// contract.
func (o *Optimizer) finalResult() *flowmodel.Result {
	if !o.fullEval {
		o.baseStats.FinalFromBase++
		return o.baseEval.ResultFromBase(o.base)
	}
	return o.baseEval.Evaluate(o.denseBuf)
}

// compact copies the final allocation — its positive entries and its
// self-pairs, in list order — and moves res's per-bundle rates and
// satisfaction, laid out by denseSeg, onto the same indices, so res is the
// evaluation of the returned list: placeholders are inert, and dropping
// them changes no other field. With own set the list is new, at exact
// capacity, each path's Edges copied into one array of the list's own, cut
// so that each ends at its capacity: the deep copy a Solution's caller owns,
// whose appending to one bundle's Edges cannot write into the next one's.
// Otherwise it is rebuilt over dst, Edges shared with the path sets.
func (o *Optimizer) compact(res *flowmodel.Result, dst []flowmodel.Bundle, own bool) []flowmodel.Bundle {
	seg := o.denseSeg
	n, hops := 0, 0
	for i := range o.aggs {
		st := &o.aggs[i]
		if st.self {
			n++
		}
		for pi, f := range st.flows {
			if f > 0 {
				n++
				hops += st.set.Path(pi).Len()
			}
		}
	}
	var out []flowmodel.Bundle
	var edgeBuf []graph.EdgeID
	if own {
		out = make([]flowmodel.Bundle, 0, n)
		edgeBuf = make([]graph.EdgeID, 0, hops)
	} else {
		out = slices.Grow(dst[:0], n)
	}
	keep := func(j int, b flowmodel.Bundle) {
		res.BundleRate[len(out)], res.BundleSatisfied[len(out)] = res.BundleRate[j], res.BundleSatisfied[j]
		out = append(out, b)
	}
	for i := range o.aggs {
		st := &o.aggs[i]
		if st.self {
			keep(seg[i], flowmodel.Bundle{Agg: traffic.AggregateID(i), Flows: st.total})
		}
		for pi, f := range st.flows {
			if f > 0 {
				edges := st.set.Path(pi).Edges
				if own {
					at := len(edgeBuf)
					edgeBuf = append(edgeBuf, edges...)
					edges = edgeBuf[at:len(edgeBuf):len(edgeBuf)]
				}
				keep(seg[i]+pi, flowmodel.Bundle{
					Agg:   traffic.AggregateID(i),
					Flows: f,
					Edges: edges,
					Delay: st.delays[pi],
				})
			}
		}
	}
	res.BundleRate, res.BundleSatisfied = res.BundleRate[:n], res.BundleSatisfied[:n]
	return out
}

// workMark is a reading of the clock and the run's work counters: the
// telemetry events report what happened since one.
type workMark struct {
	at                 time.Time
	cands, link, level int
}

func (o *Optimizer) mark() workMark {
	return workMark{time.Now(), o.candidates, o.refutedLink, o.refutedLevel}
}

// candidate describes one trial reallocation discovered by
// collectCandidates: n flows of aggregate agg from path index from to
// path index to (already present in the aggregate's path set). utility is
// filled by evaluateCandidates.
type candidate struct {
	agg     int
	from    int
	to      int
	n       int
	utility float64
}

// step implements Listing 2 for one congested link: collect every
// candidate move over bundles crossing it, evaluate the candidates across
// the worker pool, and commit the best improving move. uInit and
// congested describe the committed allocation — congested sorted by
// decreasing oversubscription (alternativesFor's most-congested pick
// depends on that order) and not aliasing base-arena storage the commit
// overwrites. Returns the committed allocation's evaluation (on the base
// arena, valid until its next use), or nil when no move improved utility.
//
// Both modes score the same list, the dense one every candidate patches at
// two entries. The persistent base is carried onto it and every candidate
// is an incremental delta against that shared snapshot; under the
// full-evaluation oracle each candidate is a full evaluation of the
// patched list.
// Both produce bit-identical candidate utilities.
//
// Selection replays the candidates in collection order with the same
// improve-by-minGain rule the serial mutate-evaluate-revert loop used, so
// any worker count commits the identical move.
func (o *Optimizer) step(link graph.EdgeID, uInit float64, congested []graph.EdgeID, fraction float64) (*flowmodel.Result, error) {
	byLink, byLevel := o.refutedLink, o.refutedLevel
	cands, grew := o.collectCandidates(link, congested, fraction)
	o.candidates += len(cands)
	if o.tm != nil {
		o.tm.CandidatesCollected.Add(int64(len(cands)))
		o.tm.RefutedByLink.Add(int64(o.refutedLink - byLink))
		o.tm.RefutedByLevel.Add(int64(o.refutedLevel - byLevel))
	}
	if len(cands) == 0 {
		return nil, nil // collection appends a path only beside a candidate
	}
	base := o.prepareBase(grew)
	o.evaluateCandidates(cands, o.denseBuf, o.stepClosure(base, link, len(cands)), uInit)

	if o.afterScoring != nil {
		o.afterScoring(cands, uInit+minGain)
	}
	bestU := uInit
	bestIdx := -1
	for i := range cands {
		if cands[i].utility > bestU+minGain {
			bestU = cands[i].utility
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil, nil
	}
	changed := o.commit(cands[bestIdx])
	var res *flowmodel.Result
	if base == nil {
		res = o.baseEval.Evaluate(o.denseBuf)
	} else {
		// Fold the committed move into the base, whose delta result is the
		// committed allocation's evaluation: no post-commit full
		// evaluation, no next-step recapture.
		var patched bool
		res, patched = o.baseEval.CommitDelta(o.base, o.denseBuf, changed[:])
		if patched {
			o.baseStats.Rebases++
		} else {
			o.baseStats.Recaptures++
		}
	}
	// The winner scored above its bound, so its score is its exact
	// utility (EvaluateDeltaUtility): an evaluation of the committed list
	// that differs by a bit means scoring and commit disagree on what the
	// move is, and a run that went on would chase phantom gains.
	if math.Float64bits(res.NetworkUtility) != math.Float64bits(bestU) {
		return nil, fmt.Errorf("core: committed move on link %d evaluates to utility %v, scored %v", link, res.NetworkUtility, bestU)
	}
	return res, nil
}

// prepareBase brings the run's list, and the base that captures the
// committed allocation, onto the layout collection left, and returns the
// base candidates are scored against (nil under the full-evaluation
// oracle). The
// layout changed only if collection appended a path (grew): the list is
// rebuilt and the new entries' placeholders are inserted into the base,
// which only failing that is re-captured by a full EvaluateBase. Every
// other step finds both current — a Skip.
func (o *Optimizer) prepareBase(grew bool) *flowmodel.Base {
	if grew {
		o.buildStepBundles()
	}
	if o.fullEval {
		return nil
	}
	switch {
	case !grew:
		o.baseStats.Skips++
	case o.remapBase():
		o.baseStats.Remaps++
	default:
		o.captureBase(o.denseBuf)
	}
	return o.base
}

// stepClosure computes, on the base arena, the sub-problem every candidate
// of the step shares: the closure of its link, whose bundles every move
// changes one of (flowmodel.Closure). The base arena is idle until the
// commit, so the closure lives in its scratch. A step of one candidate
// shares nothing, and gets the empty closure; under the full-evaluation
// oracle (no base) there is none.
func (o *Optimizer) stepClosure(base *flowmodel.Base, link graph.EdgeID, candidates int) *flowmodel.Closure {
	switch {
	case base == nil:
		return nil
	case candidates < 2:
		return o.baseEval.Closure(base)
	}
	return o.baseEval.Closure(base, link)
}

// captureBase evaluates the dense list in full on the base arena and
// captures the outcome into o.base.
func (o *Optimizer) captureBase(dense []flowmodel.Bundle) *flowmodel.Result {
	res := o.baseEval.EvaluateBase(dense, o.base)
	o.baseStats.Captures++
	return res
}

// remapBase inserts into the base, laid out by prevSeg, the placeholders of
// the paths collection appended since: path sets only grow, so aggregate
// a's old entry p is new entry p, and every entry beyond its old segment
// is a new placeholder.
func (o *Optimizer) remapBase() bool {
	if cap(o.oldIdxBuf) < len(o.denseBuf) {
		o.oldIdxBuf = make([]int, cap(o.denseBuf)) // the list's own headroom
	}
	oldIdx := o.oldIdxBuf[:len(o.denseBuf)]
	for a := range o.aggs {
		n := o.prevSeg[a+1] - o.prevSeg[a]
		for p, j := 0, o.denseSeg[a]; j < o.denseSeg[a+1]; p, j = p+1, j+1 {
			oldIdx[j] = -1
			if p < n {
				oldIdx[j] = o.prevSeg[a] + p
			}
		}
	}
	return o.baseEval.RemapBase(o.base, o.denseBuf, oldIdx)
}

// collectCandidates enumerates the step's trial moves without evaluating
// any of them, over the aggregates walkAggs lists, in that order, on the
// optimizer's generator. Genuinely new alternative paths are added to their
// aggregate's path set here (with zero flows — path sets only grow, §2.4);
// grew reports whether any was, which re-lays the list out. The bundles
// crossingPaths refutes are added to the run's refuted totals.
func (o *Optimizer) collectCandidates(link graph.EdgeID, congested []graph.EdgeID, fraction float64) (cands []candidate, grew bool) {
	o.cands = o.cands[:0]
	o.congAsc = append(o.congAsc[:0], congested...)
	slices.Sort(o.congAsc)
	for _, a := range o.walkAggs(link) {
		ai := int(a)
		st := &o.aggs[ai]
		if st.self {
			continue
		}
		// Find this aggregate's bundles crossing the link that neither an
		// earlier link of the pass nor the level below refuted; with none
		// left, no path is looked up.
		crossing := o.crossingPaths(st, link, fraction)
		if len(crossing) == 0 {
			continue
		}
		alts := o.alternativesFor(o.gen, ai, st, congested)
		if len(alts) == 0 {
			continue
		}
		agg := o.mat.Aggregate(traffic.AggregateID(ai))
		for _, from := range crossing {
			n := moveSize(agg.Flows, st.flows[from], fraction)
			if n <= 0 {
				continue
			}
			for _, alt := range alts {
				if alt.Equal(st.set.Path(from)) {
					continue
				}
				ti := st.set.IndexOf(alt)
				if ti < 0 {
					// Respect the path-set cap for genuinely new paths.
					if o.opts.MaxPathsPerAggregate > 0 &&
						st.set.Len() >= o.opts.MaxPathsPerAggregate {
						continue
					}
					if !st.set.Add(alt) {
						continue
					}
					ti = st.set.Len() - 1
					st.flows = append(st.flows, 0)
					st.delays = append(st.delays, o.model.Topology().PathDelay(alt))
					grew = true
				}
				o.cands = append(o.cands, candidate{agg: ai, from: from, to: ti, n: n})
			}
		}
	}
	return o.cands, grew
}

// walkAggs lists, ascending, the aggregates collection visits for link: an
// ordered superset of those crossingPaths accepts a bundle of: the
// aggregates of the base's active crossers of the link — in the dense layout ascending bundle index is ascending aggregate —
// merged with the run's routed aggregates whose per-flow demand is 0
// (inertAggs): their bundles are inert in the fill, so on no crosser list,
// yet moving one still changes its delay utility. The full-evaluation
// oracle has no base and walks every aggregate: the differential oracle for
// the walk. The list is
// the optimizer's scratch, valid until the next call.
func (o *Optimizer) walkAggs(link graph.EdgeID) []int32 {
	o.walk = o.walk[:0]
	if o.fullEval {
		for ai := range o.aggs {
			o.walk = append(o.walk, int32(ai))
		}
		return o.walk
	}
	k, last := 0, int32(-1)
	for _, bi := range o.base.Crossers(link) {
		ai := int32(o.denseBuf[bi].Agg)
		if ai == last {
			continue
		}
		for ; k < len(o.inertAggs) && o.inertAggs[k] < ai; k++ {
			o.walk = append(o.walk, o.inertAggs[k])
		}
		o.walk = append(o.walk, ai)
		last = ai
	}
	o.walk = append(o.walk, o.inertAggs[k:]...)
	return o.walk
}

// evaluateCandidates fills each candidate's utility, fanning the work out
// over up to Options.Workers goroutines. dense is the step's committed list
// (o.denseSeg offsets); sc is the step closure, which carries its captured
// evaluation for the delta path, and is nil when every candidate runs a
// full evaluation. Workers only read dense, sc and the aggregate states. A
// score is exact only above its bound (EvaluateDeltaUtility), so no bound
// may exceed step's selection threshold at its candidate: serially it is
// that threshold, bestU + minGain; in parallel the first one, uInit +
// minGain. minGain is compared nowhere but in that loop.
func (o *Optimizer) evaluateCandidates(cands []candidate, dense []flowmodel.Bundle, sc *flowmodel.Closure, uInit float64) {
	if o.tm != nil {
		o.tm.CandidatesEvaluated.Add(int64(len(cands)))
	}
	nw := o.opts.Workers
	if nw > len(cands) {
		nw = len(cands)
	}
	o.growWorkers(nw)
	if nw <= 1 {
		w := o.workers[0]
		bestU := uInit
		for i := range cands {
			cands[i].utility = o.evalCandidate(w, &cands[i], dense, sc, bestU+minGain)
			if cands[i].utility > bestU+minGain {
				bestU = cands[i].utility
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		w := o.workers[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				cands[i].utility = o.evalCandidate(w, &cands[i], dense, sc, uInit+minGain)
			}
		}()
	}
	wg.Wait()
}

// evalCandidate scores one trial move on the worker's private arena. The
// trial list is the worker's persistent copy of the dense list with the
// (from, to, n) flow patch at two fixed indices — the delta's changed set.
// With a step closure the evaluation is incremental, extends the closure,
// and is utility-only (scoring needs one float, not a finalized Result, and
// needs it exact only above bound); without one (the full-evaluation
// oracle) it is a full water-filling, exact at any bound.
// The patch is reverted after the evaluation, so the buffer mirrors the
// dense list again for the worker's next candidate.
func (o *Optimizer) evalCandidate(w *worker, c *candidate, dense []flowmodel.Bundle, sc *flowmodel.Closure, bound float64) float64 {
	buf := o.patchCandidate(w, c, dense)
	var u float64
	switch {
	case o.probe != nil:
		u = o.probe(w, buf, w.changed[:], sc, bound)
	case sc == nil:
		u = w.eval.Evaluate(buf).NetworkUtility
	default:
		u, _ = w.eval.EvaluateDeltaUtility(sc, buf, w.changed[:], bound)
	}
	o.revertCandidate(w, c)
	return u
}

// patchCandidate assembles the candidate's trial list in the worker's
// buffer — the dense committed list with the (from, to, n) flow patch —
// and records the two patched indices in w.changed (ascending).
// The buffer persists across candidates and steps: it is copied from the
// dense list only when stale for its layout (first candidate after a
// buildStepBundles); otherwise the patch writes exactly two entries of a
// list revertCandidate restored, and commit kept, equal to the committed
// one.
func (o *Optimizer) patchCandidate(w *worker, c *candidate, dense []flowmodel.Bundle) []flowmodel.Bundle {
	if w.syncGen != o.denseGen {
		if cap(w.buf) < len(dense) {
			w.buf = make([]flowmodel.Bundle, 0, cap(dense)) // the list's own headroom
		}
		w.buf = append(w.buf[:0], dense...)
		w.syncGen = o.denseGen
		if o.tm != nil {
			o.tm.TrialResyncs.Inc()
		}
	}
	buf := w.buf
	iFrom := o.denseSeg[c.agg] + c.from
	iTo := o.denseSeg[c.agg] + c.to
	buf[iFrom].Flows -= c.n
	buf[iTo].Flows += c.n
	if iFrom > iTo {
		iFrom, iTo = iTo, iFrom
	}
	w.changed[0], w.changed[1] = iFrom, iTo
	return buf
}

// revertCandidate undoes patchCandidate's two-entry flow patch, restoring
// the worker's buffer to the committed dense layout. Flow counts are
// integers, so the round-trip is exact.
func (o *Optimizer) revertCandidate(w *worker, c *candidate) {
	w.buf[o.denseSeg[c.agg]+c.from].Flows += c.n
	w.buf[o.denseSeg[c.agg]+c.to].Flows -= c.n
}

// growWorkers ensures at least n evaluator workers exist.
func (o *Optimizer) growWorkers(n int) {
	if n < 1 {
		n = 1
	}
	for len(o.workers) < n {
		o.workers = append(o.workers, &worker{eval: o.model.NewEval()})
	}
}

// crossingPaths returns the path indices of st whose path uses the link,
// currently carries flows and is not refuted — bundles a failed step of
// this pass already scored, and bundles the pass below scored at the move
// size they still have at fraction, are added to the run's refuted totals
// and left out. The returned slice is the optimizer's scratch, valid until
// the next call.
func (o *Optimizer) crossingPaths(st *aggState, link graph.EdgeID, fraction float64) []int {
	o.crossBuf = o.crossBuf[:0]
	for pi, f := range st.flows {
		if f <= 0 {
			continue
		}
		p := st.set.Path(pi)
		if !p.Contains(link) {
			continue
		}
		if o.refutedAny && o.skipRefuted && o.refuted(p) {
			o.refutedLink++
			continue
		}
		if o.prevFraction > 0 && o.skipRefuted && moveSize(st.total, f, o.prevFraction) == moveSize(st.total, f, fraction) {
			o.refutedLevel++
			continue
		}
		o.crossBuf = append(o.crossBuf, pi)
	}
	return o.crossBuf
}

// refuted reports whether the path crosses a link whose step failed in the
// current pass.
func (o *Optimizer) refuted(p graph.Path) bool {
	for _, e := range p.Edges {
		if o.refutedStamp[e] == o.passEpoch {
			return true
		}
	}
	return false
}

// alternativesFor computes the §2.4 trio for an aggregate given the
// current congestion set (by decreasing oversubscription; o.congAsc holds
// the same links ascending), on gen — o.gen in a run; a test compares it
// against a fresh generator. The result is the optimizer's scratch, valid
// until the next call.
//
// It must not depend on the link being stepped: Run's pass loop skips a
// bundle at one link because its candidates lost at another, which holds
// only while the aggregate's alternatives are the same at both.
func (o *Optimizer) alternativesFor(gen *pathgen.Generator, ai int, st *aggState, congested []graph.EdgeID) []graph.Path {
	// Mark the links the aggregate currently uses: a fresh epoch
	// invalidates the previous aggregate's marks, so the cost scales with
	// the aggregate's path lengths, not the topology size.
	o.usedEpoch++
	if o.usedEpoch == 0 { // epoch wrapped: old stamps would alias it
		clear(o.usedStamp)
		o.usedEpoch = 1
	}
	for pi, f := range st.flows {
		if f <= 0 {
			continue
		}
		for _, e := range st.set.Path(pi).Edges {
			o.usedStamp[e] = o.usedEpoch
		}
	}
	// The most oversubscribed used link is the first used one in
	// oversubscription order; congested ∩ used comes off the ascending list
	// already in the order the generator wants.
	most := graph.EdgeID(-1)
	for _, l := range congested {
		if o.usedStamp[l] == o.usedEpoch {
			most = l
			break
		}
	}
	o.congUsed = o.congUsed[:0]
	for _, l := range o.congAsc {
		if o.usedStamp[l] == o.usedEpoch {
			o.congUsed = append(o.congUsed, l)
		}
	}
	agg := o.mat.Aggregate(traffic.AggregateID(ai))
	alts := gen.AlternativesAvoiding(agg.Src, agg.Dst, o.congAsc, o.congUsed, most)

	o.alts = o.alts[:0]
	add := func(p graph.Path, ok bool) {
		if !ok {
			return
		}
		for _, q := range o.alts {
			if q.Equal(p) {
				return
			}
		}
		o.alts = append(o.alts, p)
	}
	switch o.opts.AltMode {
	case AltGlobalOnly:
		add(alts.Global, alts.HasGlobal)
	case AltLocalOnly:
		add(alts.Local, alts.HasLocal)
	case AltLinkLocalOnly:
		add(alts.LinkLocal, alts.HasLinkLocal)
	default:
		add(alts.Global, alts.HasGlobal)
		add(alts.Local, alts.HasLocal)
		add(alts.LinkLocal, alts.HasLinkLocal)
	}
	return o.alts
}

// moveSize computes N (Listing 2 line 3): whole bundles for small
// aggregates, a fraction of the aggregate otherwise, never more than the
// source bundle holds. Both refutation rules need it a pure function of
// its arguments — like alternativesFor it must not depend on the link being
// stepped, and crossingPaths re-derives the level below's N from it — and
// the only way fraction reaches a candidate.
func moveSize(aggFlows, bundleFlows int, fraction float64) int {
	if bundleFlows <= 0 {
		return 0
	}
	if aggFlows <= smallAggregateFlows {
		return bundleFlows
	}
	n := int(math.Ceil(fraction * float64(aggFlows)))
	if n < 1 {
		n = 1
	}
	if n > bundleFlows {
		n = bundleFlows
	}
	return n
}

// commit permanently applies a candidate move, to the aggregate's flow
// split and to the dense list's two entries, so the list stays the
// committed allocation's — and to the same two entries of every worker
// buffer synced to the list's layout, so those stay its copies and the
// next step copies nothing. Its target path joined the aggregate's path
// set during collection. Returns the two patched indices, ascending.
func (o *Optimizer) commit(c candidate) [2]int {
	st := &o.aggs[c.agg]
	st.flows[c.from] -= c.n
	st.flows[c.to] += c.n
	iFrom, iTo := o.denseSeg[c.agg]+c.from, o.denseSeg[c.agg]+c.to
	o.denseBuf[iFrom].Flows -= c.n
	o.denseBuf[iTo].Flows += c.n
	for _, w := range o.workers {
		if w.syncGen == o.denseGen {
			w.buf[iFrom].Flows -= c.n
			w.buf[iTo].Flows += c.n
		}
	}
	return [2]int{min(iFrom, iTo), max(iFrom, iTo)}
}

func (o *Optimizer) trace(s Snapshot) {
	if o.opts.Trace != nil {
		o.opts.Trace(s)
	}
}

// publishDeltaStats folds the workers' cumulative incremental-evaluation
// counters and the generator's lookup counters into the live registry,
// adding only the growth since the previous publish. Called once per committed step and once at run end;
// only reads worker state, so it never perturbs the move sequence.
func (o *Optimizer) publishDeltaStats() {
	var s flowmodel.DeltaStats
	for _, w := range o.workers {
		s.Add(w.eval.DeltaStats())
	}
	o.tm.DeltaCalls.Add((s.Calls - s.UtilityOnlyCalls) - (o.pubDelta.Calls - o.pubDelta.UtilityOnlyCalls))
	o.tm.UtilityOnlyCalls.Add(s.UtilityOnlyCalls - o.pubDelta.UtilityOnlyCalls)
	o.tm.DeltaFallbacks.Add(s.Fallbacks - o.pubDelta.Fallbacks)
	o.tm.DeltaExpansions.Add(s.Expansions - o.pubDelta.Expansions)
	o.pubDelta = s
	p := o.gen.Stats()
	o.tm.PathMemoHits.Add(p.MemoHits - o.pubPaths.MemoHits)
	o.tm.PathDonated.Add(p.Donated - o.pubPaths.Donated)
	o.tm.PathTreeAnswers.Add(p.TreeAnswers - o.pubPaths.TreeAnswers)
	o.tm.PathSearches.Add(p.Searches - o.pubPaths.Searches)
	o.tm.PathTreesBuilt.Add(p.TreesBuilt - o.pubPaths.TreesBuilt)
	o.tm.PathSettled.Add(p.Settled - o.pubPaths.Settled)
	o.pubPaths = p
}

// Run is the package-level convenience: build an optimizer over model with
// opts and run it under ctx (see Optimizer.RunWarm for the cancellation and
// deadline semantics).
func Run(ctx context.Context, model *flowmodel.Model, opts Options) (*Solution, error) {
	o, err := New(model, opts)
	if err != nil {
		return nil, err
	}
	return o.Run(ctx)
}
