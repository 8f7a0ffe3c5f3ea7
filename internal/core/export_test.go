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

// PathEntries reports what the optimizer's path generators hold on to
// (pathgen.Generator.Entries), the largest of them — the count Rebind's
// Trim bounds. For the external test package, which replays through
// internal/scenario.
func (o *Optimizer) PathEntries() int {
	n := o.gen.Entries()
	for _, col := range o.collectors {
		n = max(n, col.gen.Entries())
	}
	return n
}
