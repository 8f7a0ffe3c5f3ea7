package core

// WithoutRefutation runs f under the differential oracle for the
// failed-step rule: every optimizer bound (New, Rebind) inside f enumerates
// and scores refuted bundles as before the rule existed, until it is bound
// again. Exported to this package's tests only — the external test package
// drives whole replays through internal/scenario with it. The switch is
// process-wide, so not for parallel tests.
func WithoutRefutation(f func()) {
	refutationOff.Store(true)
	defer refutationOff.Store(false)
	f()
}

// WithFullEvaluation runs f under the differential oracle for incremental
// scoring: every optimizer bound (New, Rebind) inside f keeps no delta base
// and scores every candidate with a full water-filling, until it is bound
// again. Exported to this package's tests only — the external test package
// drives whole replays through internal/scenario with it. The switch is
// process-wide, so not for parallel tests.
func WithFullEvaluation(f func()) {
	fullEvaluation.Store(true)
	defer fullEvaluation.Store(false)
	f()
}

// evalName names a test leg by how its optimizers score candidates.
var evalName = map[bool]string{false: "incremental", true: "full"}

// Evaluating runs f under the full-evaluation oracle when full is set and
// as production scores otherwise, for the tests that run both.
func Evaluating(full bool, f func()) {
	if full {
		WithFullEvaluation(f)
		return
	}
	f()
}

// PathEntries reports what the optimizer's path generator holds on to
// (pathgen.Generator.Entries) — the count Rebind's Trim bounds. For the
// external test package, which replays through internal/scenario.
func (o *Optimizer) PathEntries() int {
	return o.gen.Entries()
}
