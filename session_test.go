package fubar_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"reflect"
	"testing"

	"fubar"
	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
)

func sessionInstance(t *testing.T) (*fubar.Topology, *fubar.Matrix) {
	t.Helper()
	topo, err := fubar.RingTopology(8, 4, 1200*fubar.Kbps, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fubar.DefaultGenConfig(11)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := fubar.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// TestSessionOptimizeMatchesFreeFunction proves the Session path commits
// the exact solution of the optimizer's own free function (core.Run on the
// same model), and that a second Optimize warm-starts from the first (the
// long-lived-controller idempotence the Session exists for).
func TestSessionOptimizeMatchesFreeFunction(t *testing.T) {
	topo, mat := sessionInstance(t)
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	old, err := core.Run(context.Background(), s.Model(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility != old.Utility || sol.Steps != old.Steps || !reflect.DeepEqual(sol.Bundles, old.Bundles) {
		t.Fatalf("session solution diverged: utility %v vs %v, steps %d vs %d",
			sol.Utility, old.Utility, sol.Steps, old.Steps)
	}
	if s.Last() != sol {
		t.Fatal("Last() does not return the committed solution")
	}
	again, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Utility < sol.Utility {
		t.Fatalf("warm re-optimize regressed utility %v -> %v", sol.Utility, again.Utility)
	}
	if again.Steps > sol.Steps/4+1 {
		t.Fatalf("warm re-optimize of an optimum took %d steps (cold %d)", again.Steps, sol.Steps)
	}
}

// streamOptimizer builds the optimizer a scenario.Replayer.Stream outside any
// Session borrows.
func streamOptimizer(t *testing.T, topo *fubar.Topology, mat *fubar.Matrix, opts scenario.Options) *core.Optimizer {
	t.Helper()
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(model, opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestSessionReplayStreamsAndMatches proves Session.Replay yields the
// epochs the scenario layer's own stream produces, epoch by epoch.
func TestSessionReplayStreamsAndMatches(t *testing.T) {
	topo, mat := sessionInstance(t)
	day := fubar.DiurnalScenario(7, 5, 0.4, 0.15)
	opts := scenario.Options{Core: core.Options{Workers: 1}}
	old, err := scenario.Run(topo, day, opts, false,
		new(scenario.Replayer).Stream(context.Background(), streamOptimizer(t, topo, mat, opts), nil, topo, mat, day, opts))
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReplayAll(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Equivalent(old); err != nil {
		t.Fatalf("session replay vs scenario.Replayer.Stream: %v", err)
	}
}

// closedLoopScenario is a short mixed timeline for the wire tests.
func closedLoopScenario(seed int64) fubar.Scenario {
	return fubar.Scenario{
		Name: "mixed", Seed: seed, Epochs: 4,
		Events: []fubar.ScenarioEvent{
			{Epoch: 0, Kind: scenario.DemandScale, Factor: 0.9},
			{Epoch: 1, Kind: scenario.LinkFail, Link: 0},
			{Epoch: 2, Kind: scenario.DemandScale, Factor: 1.2},
			{Epoch: 3, Kind: scenario.LinkRecover, Link: 0},
		},
	}
}

// TestSessionClosedLoopMatchesFreeFunction is the acceptance check: a
// same-seed uncancelled Session.ReplayClosedLoop is bit-identical to
// the scenario layer's own stream over a control plane of its own (epoch
// table and install sequence).
func TestSessionClosedLoopMatchesFreeFunction(t *testing.T) {
	topo, mat := sessionInstance(t)
	sc := closedLoopScenario(21)
	opts := scenario.Options{Core: core.Options{Workers: 1}}
	cp, err := scenario.NewControlPlane(topo, mat, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	old, err := scenario.Run(topo, sc, opts, true,
		new(scenario.Replayer).Stream(context.Background(), streamOptimizer(t, topo, mat, opts), cp, topo, mat, sc, opts))
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReplayClosedLoopAll(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Installs) == 0 {
		t.Fatal("the session's closed loop recorded no install")
	}
	if err := got.Equivalent(old); err != nil {
		t.Fatalf("session closed loop vs scenario.Replayer.Stream: %v", err)
	}
}

// TestSessionClosedLoopCancel is the other half of the acceptance
// check: a cancelled context stops a closed-loop replay mid-scenario,
// with the already-yielded epochs standing and the stream ending in
// context.Canceled.
func TestSessionClosedLoopCancel(t *testing.T) {
	topo, mat := sessionInstance(t)
	sc := closedLoopScenario(21)
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int
	var final error
	for er, err := range s.ReplayClosedLoop(ctx, sc) {
		if err != nil {
			final = err
			continue
		}
		done++
		if er.Epoch == 1 {
			cancel()
		}
	}
	if done != 2 {
		t.Fatalf("cancelled after epoch 1 but %d epochs were yielded", done)
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("stream final error = %v, want context.Canceled", final)
	}
}

// TestSessionReplayConstantMemory spot-checks the O(1)-memory claim:
// streaming a long replay must not accumulate per-epoch state in the
// session (the stream holds one EpochRecord at a time; this guards
// against an accidental []EpochResult buffer reappearing).
func TestSessionReplayConstantMemory(t *testing.T) {
	topo, mat := sessionInstance(t)
	day := fubar.DiurnalScenario(7, 40, 0.3, 0)
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1), fubar.WithOptions(fubar.Options{Workers: 1, MaxSteps: 4}))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var prev *fubar.EpochRecord
	for er, err := range s.Replay(context.Background(), day) {
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && er.Epoch != prev.Epoch+1 {
			t.Fatalf("epochs out of order: %d after %d", er.Epoch, prev.Epoch)
		}
		e := er
		prev = &e
		seen++
	}
	if seen != 40 {
		t.Fatalf("streamed %d epochs, want 40", seen)
	}
}

// TestOptimizeUnchangedByLending pins the Session's lending contract from
// Optimize's side: whatever replays borrowed the session's optimizer since
// the last Optimize — one that ran to its end, one abandoned by break at
// epoch 3, one that died mid-epoch with the optimizer bound to an instance it
// could not route, a closed-loop one, or one still being pulled — the next
// Optimize, cold and then warm, returns bit for bit the Solution of a session
// that never replayed.
func TestOptimizeUnchangedByLending(t *testing.T) {
	topo, mat := sessionInstance(t)
	crisis := fubar.CrisisScenario(5, 6, 1.5, 3)
	// cutOff fails every link of node 0 at epoch 2: that epoch re-binds the
	// optimizer, finds no path for node 0's aggregates, and ends the stream.
	cutOff := fubar.Scenario{Name: "cut-off", Seed: 9, Epochs: 4}
	for id := 0; id < topo.NumLinks(); id++ {
		if l := topo.Link(fubar.LinkID(id)); (l.From == 0 || l.To == 0) && (l.Reverse < 0 || l.ID < l.Reverse) {
			cutOff.Events = append(cutOff.Events, fubar.ScenarioEvent{Epoch: 2, Kind: scenario.LinkFail, Link: l.ID})
		}
	}
	// drain pulls a replay until stop says so (or it ends) and returns how
	// it ended.
	drain := func(seq iter.Seq2[fubar.EpochRecord, error], stop func(fubar.EpochRecord) bool) (epochs int, err error) {
		for er, e := range seq {
			if e != nil {
				return epochs, e
			}
			epochs++
			if stop != nil && stop(er) {
				break
			}
		}
		return epochs, nil
	}
	never := func(fubar.EpochRecord) bool { return false }
	disturb := []struct {
		name string
		run  func(t *testing.T, s *fubar.Session)
	}{
		{"completed", func(t *testing.T, s *fubar.Session) {
			if n, err := drain(s.Replay(context.Background(), crisis), never); err != nil || n != crisis.Epochs {
				t.Fatalf("replay: %d epochs, err %v", n, err)
			}
		}},
		{"abandoned", func(t *testing.T, s *fubar.Session) {
			if n, err := drain(s.Replay(context.Background(), crisis), func(er fubar.EpochRecord) bool { return er.Epoch == 3 }); err != nil || n != 4 {
				t.Fatalf("replay: %d epochs, err %v", n, err)
			}
		}},
		{"errored", func(t *testing.T, s *fubar.Session) {
			if n, err := drain(s.Replay(context.Background(), cutOff), never); err == nil || n != 2 {
				t.Fatalf("replay: %d epochs, err %v; want an error at epoch 2", n, err)
			}
		}},
		{"closed-loop", func(t *testing.T, s *fubar.Session) {
			if n, err := drain(s.ReplayClosedLoop(context.Background(), closedLoopScenario(21)), never); err != nil || n != 4 {
				t.Fatalf("closed-loop replay: %d epochs, err %v", n, err)
			}
		}},
	}
	same := func(t *testing.T, what string, got, want *fubar.Solution) {
		t.Helper()
		if !reflect.DeepEqual(got.Bundles, want.Bundles) || math.Float64bits(got.Utility) != math.Float64bits(want.Utility) ||
			got.Steps != want.Steps || got.Escalations != want.Escalations || got.Stop != want.Stop {
			t.Errorf("%s Optimize moved: utility %v steps %d escalations %d stop %v (%d bundles), want %v / %d / %d / %v (%d bundles)",
				what, got.Utility, got.Steps, got.Escalations, got.Stop, len(got.Bundles),
				want.Utility, want.Steps, want.Escalations, want.Stop, len(want.Bundles))
		}
	}
	for _, workers := range []int{1, 4} {
		for _, telemetered := range []bool{false, true} {
			session := func(t *testing.T) *fubar.Session {
				t.Helper()
				opts := []fubar.SessionOption{fubar.WithWorkers(workers)}
				if telemetered {
					opts = append(opts, fubar.WithTelemetry(fubar.NewTelemetry()))
				}
				s, err := fubar.NewSession(topo, mat, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			optimize := func(t *testing.T, s *fubar.Session) *fubar.Solution {
				t.Helper()
				sol, err := s.Optimize(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return sol
			}
			name := fmt.Sprintf("workers-%d/telemetry-%v", workers, telemetered)
			ref := session(t)
			cold, warm := optimize(t, ref), optimize(t, ref)
			if cold.Steps == 0 {
				t.Fatal("the cold Optimize committed no move; the comparison proves little")
			}
			for _, d := range disturb {
				t.Run(name+"/"+d.name, func(t *testing.T) {
					s := session(t)
					d.run(t, s)
					same(t, "cold", optimize(t, s), cold)
					if s.Last().Utility != cold.Utility {
						t.Error("Last() is not the Optimize just returned")
					}
					d.run(t, s)
					same(t, "warm", optimize(t, s), warm)
				})
			}
			t.Run(name+"/interleaved", func(t *testing.T) {
				alone, err := session(t).ReplayAll(context.Background(), crisis)
				if err != nil {
					t.Fatal(err)
				}
				s := session(t)
				interleaved := *alone
				interleaved.Epochs = nil
				for er, err := range s.Replay(context.Background(), crisis) {
					if err != nil {
						t.Fatal(err)
					}
					interleaved.Epochs = append(interleaved.Epochs, er)
					switch er.Epoch {
					case 1:
						same(t, "cold", optimize(t, s), cold)
					case 4:
						same(t, "warm", optimize(t, s), warm)
					}
				}
				if err := alone.Equivalent(&interleaved); err != nil {
					t.Fatalf("a replay with Optimize calls between its epochs: %v", err)
				}
			})
		}
	}
}

// TestOptimizeRootSpan: with telemetry on, each Session.Optimize emits one
// session.optimize span, under the span and in the request its context
// carries, and every core.step and core.proof span of the run names it as
// parent; the run's solution is what it would be untraced.
func TestOptimizeRootSpan(t *testing.T) {
	topo, mat := sessionInstance(t)
	tel := fubar.NewTelemetry()
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1), fubar.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithSpan(context.Background(), telemetry.Span{ID: 900, Req: 8})
	roots := map[uint64]bool{}
	for call := 0; call < 2; call++ {
		sol, err := s.Optimize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Optimize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Utility != want.Utility || sol.Steps != want.Steps || !reflect.DeepEqual(sol.Bundles, want.Bundles) {
			t.Fatalf("call %d: traced Optimize differs from untraced: utility %v vs %v, %d vs %d steps", call, sol.Utility, want.Utility, sol.Steps, want.Steps)
		}
	}
	events, _, cancel := tel.Tracer.Subscribe()
	cancel()
	var children []fubar.TraceEvent
	for _, ev := range events {
		if ev.Req != 8 {
			t.Errorf("%s span %+v outside the request", ev.Name, ev.Span)
		}
		switch ev.Name {
		case "session.optimize":
			if ev.Parent != 900 || roots[ev.ID] {
				t.Errorf("optimize root %+v: want a fresh ID under span 900", ev.Span)
			}
			for _, c := range children {
				if c.Parent != ev.ID {
					t.Errorf("%s span %+v not under its optimize root %d", c.Name, c.Span, ev.ID)
				}
			}
			children = children[:0]
			roots[ev.ID] = true
		case "core.step", "core.proof":
			children = append(children, ev)
		default:
			t.Errorf("unexpected span %q", ev.Name)
		}
	}
	if len(roots) != 2 || len(children) != 0 {
		t.Errorf("%d optimize roots for 2 calls, %d spans after the last", len(roots), len(children))
	}
}
