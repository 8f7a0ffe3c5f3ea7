package scenario

import (
	"testing"

	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// fuzzInstance is the small shared instance FuzzScenarioApply mutates
// engines over (the engine never mutates the base topology or matrix).
func fuzzInstance(f *testing.F) (*topology.Topology, *traffic.Matrix) {
	f.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		f.Fatalf("Ring: %v", err)
	}
	st, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		f.Fatalf("WithSRLGs: %v", err)
	}
	cfg := traffic.DefaultGenConfig(1)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(st, cfg)
	if err != nil {
		f.Fatalf("Generate: %v", err)
	}
	return st, mat
}

// encodeEvents packs a generator's timeline into FuzzScenarioApply's
// 6-byte chunk format, as faithfully as the encoding allows: byte 1
// drives both the link pick and the group pick, so the encoder searches
// for a byte that preserves both and otherwise keeps whichever field the
// event's kind actually reads; factors and fractions quantize. Close
// enough to drop real composite-generator timelines into the corpus.
func encodeEvents(events []Event, nL, epochs int, groups []string) []byte {
	gi := func(name string) int {
		for j, g := range groups {
			if g == name {
				return j
			}
		}
		return 0
	}
	var raw []byte
	for _, e := range events {
		wantLink := (int(e.Link) + 1) % (nL + 1)
		wantGroup := gi(e.Group)
		linkOrGroup := byte(wantLink)
		if e.Group != "" {
			linkOrGroup = byte(wantGroup)
		}
		for b := 0; b < 256; b++ {
			if b%(nL+1) == wantLink && b%len(groups) == wantGroup {
				linkOrGroup = byte(b)
				break
			}
		}
		factor := (e.Factor - 0.25) * 64
		if factor < 0 {
			factor = 0
		} else if factor > 255 {
			factor = 255
		}
		fraction := e.Fraction * 100
		if fraction < 1 {
			fraction = 1
		} else if fraction > 100 {
			fraction = 100
		}
		count := e.Count
		if count < 1 {
			count = 1
		}
		epoch := e.Epoch % epochs
		if epoch < 0 {
			epoch = 0
		}
		raw = append(raw,
			byte(e.Kind)%13,
			linkOrGroup,
			byte(factor),
			byte(fraction-1)%100,
			byte(count-1)%4,
			byte(epoch),
		)
	}
	return raw
}

// FuzzScenarioApply decodes arbitrary bytes into an event timeline and
// applies it epoch by epoch: event application must never panic or
// error, and every epoch must materialize a valid instance — at least
// one aggregate, every flow count >= 1, no negative capacity, stable
// strictly-increasing aggregate keys, and failure/maintenance ledgers
// consistent with the link state.
//
// Run with `go test -fuzz=FuzzScenarioApply ./internal/scenario`; under
// plain `go test` the seed corpus runs as regression cases.
func FuzzScenarioApply(f *testing.F) {
	topo, mat := fuzzInstance(f)
	groups := []string{"", "ga", "gb"}
	opt, err := newOptimizer(topo, mat, Options{}) // never run: events and materialize only
	if err != nil {
		f.Fatal(err)
	}

	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 0, 0, 0, 0, 0})
	f.Add(int64(3), []byte{4, 1, 10, 50, 2, 0, 5, 0, 0, 0, 0, 1, 7, 2, 0, 0, 0, 2})
	f.Add(int64(4), []byte{9, 200, 255, 99, 4, 1, 10, 3, 128, 10, 1, 2, 8, 0, 0, 0, 0, 0})
	// Composite-generator timelines re-encoded into the chunk format: the
	// crisis merge (flash crowd + SRLG storm + maintenance), the
	// diurnal-plus-kill-storm merge, and a sparse soak slice, so the
	// corpus starts from realistic stacked event sequences rather than
	// only hand-rolled ones.
	nL := topo.NumLinks()
	f.Add(int64(5), encodeEvents(Crisis(5, 3, 2.0, 8).Events, nL, 3, groups))
	f.Add(int64(6), encodeEvents(DiurnalKillStorm(6, 3, 3).Events, nL, 3, groups))
	f.Add(int64(7), encodeEvents(Soak(7, 48, 12).Events, nL, 3, groups))

	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		const epochs = 3
		nL := topo.NumLinks()
		var events []Event
		for i := 0; i+5 < len(raw) && len(events) < 24; i += 6 {
			e := Event{
				Epoch:    int(raw[5+i]) % epochs,
				Kind:     EventKind(raw[i] % 13),
				Link:     topology.LinkID(int(raw[1+i])%(nL+1)) - 1,
				Factor:   0.25 + float64(raw[2+i])/64,
				Fraction: float64(raw[3+i]%100+1) / 100,
				Count:    int(raw[4+i]%4) + 1,
				Group:    groups[raw[1+i]%uint8(len(groups))],
			}
			events = append(events, e)
		}
		sc := Scenario{Name: "fuzz", Seed: seed, Epochs: epochs, Events: events}
		en, err := newEngine(opt, nil, topo, mat, sc, Options{})
		if err != nil {
			return // engine rejected the timeline up front: fine
		}
		byEpoch := en.timeline()
		for epoch := 0; epoch < epochs; epoch++ {
			if _, err := en.applyEpochEvents(byEpoch, epoch); err != nil {
				t.Fatalf("epoch %d: apply: %v", epoch, err)
			}
			inst, err := en.materialize()
			if err != nil {
				t.Fatalf("epoch %d: materialize: %v", epoch, err)
			}
			if inst.mat.NumAggregates() < 1 {
				t.Fatalf("epoch %d: no aggregates", epoch)
			}
			for _, a := range inst.mat.Aggregates() {
				if a.Flows < 1 {
					t.Fatalf("epoch %d: aggregate %d has %d flows", epoch, a.ID, a.Flows)
				}
			}
			for l := 0; l < inst.topo.NumLinks(); l++ {
				if inst.topo.Capacity(topology.LinkID(l)) < 0 {
					t.Fatalf("epoch %d: negative capacity on link %d", epoch, l)
				}
			}
			if len(inst.keys) != inst.mat.NumAggregates() {
				t.Fatalf("epoch %d: %d keys for %d aggregates", epoch, len(inst.keys), inst.mat.NumAggregates())
			}
			for i := 1; i < len(inst.keys); i++ {
				if inst.keys[i] <= inst.keys[i-1] {
					t.Fatalf("epoch %d: keys not strictly increasing at %d: %v", epoch, i, inst.keys[i-1:i+1])
				}
			}
			// Ledger consistency: every tracked link is down, no link is
			// tracked twice, and down links have zero epoch capacity and
			// a forbidden mask entry in both directions.
			seen := map[topology.LinkID]bool{}
			for _, id := range en.downLinks() {
				if seen[id] {
					t.Fatalf("epoch %d: link %d tracked twice", epoch, id)
				}
				seen[id] = true
				if !en.failed[id] {
					t.Fatalf("epoch %d: tracked link %d not marked down", epoch, id)
				}
				if inst.topo.Capacity(id) != 0 {
					t.Fatalf("epoch %d: down link %d has capacity %v", epoch, id, inst.topo.Capacity(id))
				}
				if !inst.opts.Policy.ForbiddenLinks[id] {
					t.Fatalf("epoch %d: down link %d not forbidden", epoch, id)
				}
				if r := inst.topo.Link(id).Reverse; r >= 0 && !inst.opts.Policy.ForbiddenLinks[r] {
					t.Fatalf("epoch %d: down link %d reverse %d not forbidden", epoch, id, r)
				}
			}
			for l := 0; l < nL; l++ {
				if en.failed[l] && !seen[en.forwardID(topology.LinkID(l))] {
					t.Fatalf("epoch %d: link %d down but untracked", epoch, l)
				}
			}
		}
	})
}
