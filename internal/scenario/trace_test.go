package scenario

import (
	"context"
	"encoding/json"
	"testing"

	"fubar/internal/core"
	"fubar/internal/telemetry"
	"fubar/internal/unit"
)

// tracedReplay replays mixedScenario(21) on the small ring with telemetry,
// open loop or closed, under a context carrying the span {ID 1000, request
// 42}, and returns every span the replay's tracer recorded, in emit order.
// The replay must be equivalent to the same replay untraced.
func tracedReplay(t *testing.T, closed bool) []telemetry.Event {
	t.Helper()
	topo, mat := ringInstance(t, 800*unit.Kbps, 13, 13)
	replay := run
	if closed {
		replay = runClosedLoop
	}
	plain, err := replay(context.Background(), topo, mat, mixedScenario(21), Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	ctx := telemetry.WithSpan(context.Background(), telemetry.Span{ID: 1000, Req: 42})
	traced, err := replay(ctx, topo, mat, mixedScenario(21), Options{Core: core.Options{Workers: 1, Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Equivalent(traced); err != nil {
		t.Fatalf("closed=%v: the traced replay differs from the untraced one: %v", closed, err)
	}
	events, _, cancel := tel.Tracer.Subscribe()
	cancel()
	if len(events) >= 1024 {
		t.Fatalf("%d spans fill the tracer's ring: some were dropped", len(events))
	}
	return events
}

// TestReplaySpansNameTheirEpoch: every core.step and core.proof span of a
// replay names its own epoch's scenario.epoch span as its parent — the
// epoch takes its ID when it starts and hands it to the optimizer — and
// every epoch span hangs under the span the replay's context carries; all
// of them carry its request ID, and the replay is what it is untraced.
func TestReplaySpansNameTheirEpoch(t *testing.T) {
	for _, closed := range []bool{false, true} {
		events := tracedReplay(t, closed)
		var pending []telemetry.Event // the optimizer's spans since the last epoch's
		epochs, children := 0, 0
		ids := map[uint64]bool{}
		for _, ev := range events {
			if ev.Req != 42 || ev.ID == 0 || ids[ev.ID] {
				t.Fatalf("closed=%v: span %+v: want request 42 and a fresh non-zero ID", closed, ev)
			}
			ids[ev.ID] = true
			switch ev.Name {
			case "core.step", "core.proof":
				pending = append(pending, ev)
			case "scenario.epoch":
				epochs++
				if ev.Parent != 1000 {
					t.Errorf("closed=%v: epoch span %d has parent %d, want the replay's 1000", closed, ev.ID, ev.Parent)
				}
				for _, c := range pending {
					if c.Parent != ev.ID {
						t.Errorf("closed=%v: %s span %d of epoch span %d names %d as its parent", closed, c.Name, c.ID, ev.ID, c.Parent)
					}
				}
				children += len(pending)
				pending = pending[:0]
			default:
				t.Errorf("closed=%v: unexpected span %q", closed, ev.Name)
			}
		}
		if epochs != 4 || children < epochs || len(pending) != 0 {
			t.Errorf("closed=%v: %d epoch spans over %d optimizer spans, %d after the last epoch's; want 4 epochs, each with one at least", closed, epochs, children, len(pending))
		}
	}
}

// TestTraceJSONPinned pins what /trace writes for the first core.step,
// core.proof and scenario.epoch span of an open-loop replay, start and
// duration zeroed: every field name and value type the flat events had,
// with the span's id, parent and req added.
func TestTraceJSONPinned(t *testing.T) {
	want := map[string]string{
		"core.step":      `{"ts":0,"name":"core.step","dur":0,"id":2,"parent":1,"req":42,"fields":{"candidates":18,"congested":11,"escalation":0,"refuted":0,"refuted_level":0,"step":1,"utility":0.6009952603937062}}`,
		"core.proof":     `{"ts":0,"name":"core.proof","dur":0,"id":31,"parent":1,"req":42,"fields":{"candidates":57,"passes":3,"refuted_level":90,"refuted_link":99}}`,
		"scenario.epoch": `{"ts":0,"name":"scenario.epoch","dur":0,"id":1,"parent":1000,"req":42,"fields":{"epoch":0,"flow_mods":56,"steps":29,"utility":0.7247323808134082,"warm_start":false}}`,
	}
	for _, ev := range tracedReplay(t, false) {
		w, ok := want[ev.Name]
		if !ok || w == "done" {
			continue
		}
		want[ev.Name] = "done"
		ev.TimeUnixNano, ev.DurNano = 0, 0
		got, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != w {
			t.Errorf("%s span's JSON\n got %s\nwant %s", ev.Name, got, w)
		}
	}
	for name, w := range want {
		if w != "done" {
			t.Errorf("the replay emitted no %s span", name)
		}
	}
}
