package fubar_test

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"fubar"
)

// TestReplayStorageAliasesNothingHandedOut: a Session keeps its replays'
// epoch instance — matrices, warm start, solution, scratch — and rebuilds
// it in place epoch after epoch and replay after replay. So everything a
// replay or the session hands out is held here and checked, field for
// field, after later epochs, an Optimize and two more replays have reused
// that storage: every EpochRecord, Session.Model() and Session.Matrix(),
// and a Solution, Result included, taken between two replays. Open loop
// and closed. A replay run again on the reused storage also yields what it
// yielded the first time, install generations aside.
func TestReplayStorageAliasesNothingHandedOut(t *testing.T) {
	ctx := context.Background()
	for _, closed := range []bool{false, true} {
		t.Run(map[bool]string{false: "open", true: "closed"}[closed], func(t *testing.T) {
			topo, err := fubar.RingTopology(6, 3, 600*fubar.Kbps, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fubar.DefaultGenConfig(7)
			cfg.RealTimeFlows = [2]int{1, 4}
			cfg.BulkFlows = [2]int{1, 3}
			mat, err := fubar.GenerateTraffic(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1), fubar.WithReplicas(3))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// held is everything handed out so far, with its rendering when
			// it was handed out: %+v prints every field, slices by content.
			type held struct {
				what   string
				render func() string
				was    string
			}
			var all []held
			hold := func(what string, render func() string) {
				all = append(all, held{what, render, render()})
			}
			model := s.Model()
			hold("Session.Model()", func() string {
				return fmt.Sprintf("%+v %+v", model, model.Matrix().Aggregates())
			})
			hold("Session.Matrix()", func() string {
				m := s.Matrix()
				return fmt.Sprintf("%p %+v %+v", m, m.Topology(), m.Aggregates())
			})
			replay := func(sc fubar.Scenario) []fubar.EpochRecord {
				seq := s.Replay(ctx, sc)
				if closed {
					seq = s.ReplayClosedLoop(ctx, sc)
				}
				var out []fubar.EpochRecord
				for er, err := range seq {
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, er)
				}
				for i := range out {
					er := &out[i]
					hold(fmt.Sprintf("%s epoch %d", sc.Name, i), func() string { return fmt.Sprintf("%+v", *er) })
				}
				return out
			}

			day := fubar.DiurnalScenario(3, 8, 0.4, 0.3)
			first := replay(day)
			sol, err := s.Optimize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			hold("Optimize's Solution", func() string { return fmt.Sprintf("%+v %+v", *sol, *sol.Result) })
			crisis := fubar.CrisisScenario(5, 8, 1.3, 3)
			most := 0
			for _, er := range replay(crisis) {
				most = max(most, er.Aggregates)
			}
			if most <= first[0].Aggregates {
				t.Fatalf("the crisis replay peaks at %d aggregates: the reused matrix never grew", most)
			}
			again := replay(day)

			for _, h := range all {
				if now := h.render(); now != h.was {
					t.Errorf("%s changed after later replays reused the storage:\n was %s\n now %s", h.what, h.was, now)
				}
			}
			// Install generations count on across replays of one control
			// plane, as reused hardware's would.
			canon := func(er fubar.EpochRecord) string {
				er.Elapsed = 0
				er.Installs = slices.Clone(er.Installs)
				for j := range er.Installs {
					er.Installs[j].Generation = 0
				}
				return fmt.Sprintf("%+v", er)
			}
			for i := range first {
				if a, b := canon(first[i]), canon(again[i]); a != b {
					t.Fatalf("epoch %d of the replay run again differs:\n first %+v\n again %+v", i, a, b)
				}
			}
		})
	}
}

// TestDaemonReplayRepeatsOverKeptStorage: a tenant's replays run on the
// storage its session keeps, so a replay request repeated after an
// optimize and a replay of another timeline have reused it streams what
// the first request streamed, line for line.
func TestDaemonReplayRepeatsOverKeptStorage(t *testing.T) {
	_, ts := newDaemonServer(t)
	daemonCreateTenant(t, ts.URL, "a", 11)
	get := func(q string) [][]byte {
		resp, err := http.Get(ts.URL + "/v1/tenants/a/replay?" + q)
		if err != nil {
			t.Fatal(err)
		}
		lines, streamErr := daemonStreamEpochs(t, resp)
		if streamErr != "" {
			t.Fatalf("%s: %s", q, streamErr)
		}
		return lines
	}
	for _, mode := range []string{"open", "closed"} {
		q := "scenario=diurnal&epochs=6&seed=4&mode=" + mode
		first := get(q)
		resp, err := http.Post(ts.URL+"/v1/tenants/a/optimize", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize: status %d", resp.StatusCode)
		}
		get("scenario=crisis&epochs=5&seed=9&mode=" + mode)
		again := get(q)
		if len(first) != 6 || !slices.EqualFunc(first, again, slices.Equal) {
			t.Fatalf("%s: the repeated replay streamed %d lines, %d the first time, or different ones:\n first %s\n again %s",
				mode, len(again), len(first), first, again)
		}
	}
}
