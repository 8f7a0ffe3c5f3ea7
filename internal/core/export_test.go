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
