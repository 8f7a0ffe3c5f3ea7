package core

import (
	"context"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/telemetry"
)

// TestRunSpansNameTheirParent: a run's core.step and core.proof spans hang
// under the span its context carries — a replay epoch's or an optimize
// root's — in that span's request, each with an ID of its own; a context
// without one makes them roots.
func TestRunSpansNameTheirParent(t *testing.T) {
	topo, mat := congestedInstance(t, 14)
	for _, parent := range []telemetry.Span{{ID: 77, Parent: 3, Req: 5}, {}} {
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		o, err := New(model, Options{Workers: 1, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if parent != (telemetry.Span{}) {
			ctx = telemetry.WithSpan(ctx, parent)
		}
		sol, err := o.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[uint64]bool{}
		for _, ev := range traceEvents(tel) {
			if ev.Parent != parent.ID || ev.Req != parent.Req || ev.ID == 0 || ids[ev.ID] {
				t.Errorf("under %+v: %s span %+v", parent, ev.Name, ev.Span)
			}
			ids[ev.ID] = true
		}
		if len(ids) != sol.Steps+1 {
			t.Errorf("under %+v: %d spans for %d steps and a proof", parent, len(ids), sol.Steps)
		}
	}
}
