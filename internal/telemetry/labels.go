package telemetry

import (
	"context"
	"runtime/pprof"
)

// Phase is one stage of a replay epoch, as CPU profiles label it.
type Phase uint8

// The epoch phases, in the order an epoch runs them: the failover settle,
// materialize and repair, the counter measurement, the re-optimization,
// and pricing, install and recording.
const (
	PhaseSettle Phase = iota
	PhaseRepair
	PhaseEstimate
	PhaseOptimize
	PhasePublish
	numPhases
)

var phaseNames = [numPhases]string{"settle", "repair", "estimate", "optimize", "publish"}

// ProfileLabels are the pprof label sets one kind of work switches its
// goroutine between: the run's own, and the run's with each phase added.
// Every set is built once, by NewProfileLabels, and switching to one with
// pprof.SetGoroutineLabels allocates nothing. A nil *ProfileLabels
// switches nothing.
type ProfileLabels struct {
	run    context.Context
	phases [numPhases]context.Context
}

// NewProfileLabels builds the label sets of a run labelled with the
// key-value pairs kv.
func NewProfileLabels(kv ...string) *ProfileLabels {
	l := &ProfileLabels{run: pprof.WithLabels(context.Background(), pprof.Labels(kv...))}
	for p, name := range phaseNames {
		l.phases[p] = pprof.WithLabels(l.run, pprof.Labels("phase", name))
	}
	return l
}

// Enter labels the calling goroutine with the run's labels.
func (l *ProfileLabels) Enter() {
	if l != nil {
		pprof.SetGoroutineLabels(l.run)
	}
}

// Phase labels the calling goroutine with the run's labels and phase p.
func (l *ProfileLabels) Phase(p Phase) {
	if l != nil {
		pprof.SetGoroutineLabels(l.phases[p])
	}
}

type labelsKey struct{}

// WithProfileLabels returns ctx carrying l, for the code it is handed to
// switch phases with.
func WithProfileLabels(ctx context.Context, l *ProfileLabels) context.Context {
	return context.WithValue(ctx, labelsKey{}, l)
}

// ProfileLabelsOf returns the labels ctx carries, nil when none.
func ProfileLabelsOf(ctx context.Context) *ProfileLabels {
	l, _ := ctx.Value(labelsKey{}).(*ProfileLabels)
	return l
}
