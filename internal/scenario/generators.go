package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// HEBenchInstance is the canonical replay-benchmark instance shared by
// the acceptance tests, benchmark/ and the daemon's "hebench" preset: the
// Hurricane Electric 31-POP substitute at 6 Mbps per link with a
// deterministic every-5th-pair thinning of the §3 workload — HE's
// spatial structure at a fifth of the optimization cost, so a 20-epoch
// replay finishes in seconds.
func HEBenchInstance(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.HurricaneElectric(6 * unit.Mbps)
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	full, err := traffic.Generate(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	mat, err := full.Subset(func(a traffic.Aggregate) bool { return a.ID%5 == 0 })
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// Diurnal returns a day-long demand curve: every epoch sets the global
// demand factor from a sinusoid starting at the overnight trough
// (1-amplitude), peaking mid-timeline (1+amplitude) and returning to the
// trough, with optional per-aggregate churn layered on every epoch
// (churn is the lognormal sigma; 0 disables). This is the canonical
// "periodically adjust as demand shifts" workload.
func Diurnal(seed int64, epochs int, amplitude, churn float64) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("diurnal-%dep-a%.2f", epochs, amplitude),
		Seed:   seed,
		Epochs: epochs,
	}
	for e := 0; e < epochs; e++ {
		phase := 2 * math.Pi * float64(e) / float64(epochs)
		factor := 1 - amplitude*math.Cos(phase)
		sc.Events = append(sc.Events, Event{Epoch: e, Kind: DemandScale, Factor: factor})
		if churn > 0 {
			sc.Events = append(sc.Events, Event{Epoch: e, Kind: DemandChurn, Factor: churn, Fraction: 0.3})
		}
	}
	return sc
}

// FailureStorm returns a cascading-failure episode: after a healthy
// first epoch, one random (non-partitioning) link fails per epoch until
// `failures` links are down, the network rides out the degraded plateau,
// and the links then recover oldest-first. Epochs must leave room for
// the storm: epochs >= 2*failures + 2.
func FailureStorm(seed int64, epochs, failures int) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("failure-storm-%dep-f%d", epochs, failures),
		Seed:   seed,
		Epochs: epochs,
	}
	if failures < 1 {
		failures = 1
	}
	// Failures start at epoch 1; recoveries fill the tail.
	for i := 0; i < failures && 1+i < epochs; i++ {
		sc.Events = append(sc.Events, Event{Epoch: 1 + i, Kind: LinkFail, Link: -1})
	}
	for i := 0; i < failures; i++ {
		e := epochs - failures + i
		if e <= failures { // timeline too short: recover as late as possible
			e = failures + 1 + i
		}
		if e < epochs {
			sc.Events = append(sc.Events, Event{Epoch: e, Kind: LinkRecover, Link: -1})
		}
	}
	return sc
}

// FlashCrowd returns a sudden-hotspot episode: at one quarter of the
// timeline `arrivals` new aggregates appear and global demand spikes to
// `spike`x, then decays geometrically back to baseline while the crowd
// departs near the end.
func FlashCrowd(seed int64, epochs int, spike float64, arrivals int) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("flash-crowd-%dep-x%.1f", epochs, spike),
		Seed:   seed,
		Epochs: epochs,
	}
	onset := epochs / 4
	tau := float64(epochs) / 6
	if tau < 1 {
		tau = 1
	}
	for e := 0; e < epochs; e++ {
		factor := 1.0
		if e >= onset {
			factor = 1 + (spike-1)*math.Exp(-float64(e-onset)/tau)
		}
		sc.Events = append(sc.Events, Event{Epoch: e, Kind: DemandScale, Factor: factor})
	}
	if arrivals > 0 && onset < epochs {
		sc.Events = append(sc.Events, Event{Epoch: onset, Kind: AggregateArrive, Count: arrivals})
		depart := epochs - 1 - epochs/8
		if depart > onset {
			sc.Events = append(sc.Events, Event{Epoch: depart, Kind: AggregateDepart, Count: arrivals})
		}
	}
	return sc
}

// Maintenance returns a planned-work window: a random link drains at
// one third of the timeline and returns to service at two thirds, with
// mild demand churn layered on every epoch. Drained links are tracked
// in a separate ledger from failures (EpochResult.MaintenanceLinks) but
// repaired the same way; the closed-loop replay additionally prices
// each epoch's reroute make-before-break (EpochResult.MBBHeadroom).
func Maintenance(seed int64, epochs int) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("maintenance-%dep", epochs),
		Seed:   seed,
		Epochs: epochs,
	}
	start := epochs / 3
	end := 2 * epochs / 3
	if end <= start {
		end = start + 1
	}
	sc.Events = append(sc.Events, Event{Epoch: start, Kind: MaintenanceStart, Link: -1})
	if end < epochs {
		sc.Events = append(sc.Events, Event{Epoch: end, Kind: MaintenanceEnd, Link: -1})
	}
	for e := 0; e < epochs; e++ {
		sc.Events = append(sc.Events, Event{Epoch: e, Kind: DemandChurn, Factor: 0.1, Fraction: 0.2})
	}
	return sc
}

// SRLGOutage returns a correlated-failure episode: a random shared-risk
// group declared on the topology fails at one quarter of the timeline
// and recovers at three quarters. With no SRLGs declared
// (topology.WithSRLGs) the events are no-ops.
func SRLGOutage(seed int64, epochs int) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("srlg-outage-%dep", epochs),
		Seed:   seed,
		Epochs: epochs,
	}
	fail := epochs / 4
	recover := 3 * epochs / 4
	if recover <= fail {
		recover = fail + 1
	}
	sc.Events = append(sc.Events, Event{Epoch: fail, Kind: SRLGFail})
	if recover < epochs {
		sc.Events = append(sc.Events, Event{Epoch: recover, Kind: SRLGRecover})
	}
	return sc
}

// ControllerKillStorm returns a control-plane availability episode:
// after a healthy first epoch, controller replica seats are killed and
// recovered round-robin — one kill every other epoch, each seat
// recovering two epochs after it went down — while mild demand churn
// keeps every epoch's allocation moving. Seat indices stay within
// [0, seats); on a replay with fewer live replicas the excess events
// are deterministic no-ops, so the same scenario compares 1-replica
// and N-replica control planes (the HA bench runs exactly that).
func ControllerKillStorm(seed int64, epochs, seats int) Scenario {
	sc := Scenario{
		Name:   fmt.Sprintf("ctrl-kill-storm-%dep-s%d", epochs, seats),
		Seed:   seed,
		Epochs: epochs,
	}
	if seats < 1 {
		seats = 1
	}
	seat := 0
	for e := 1; e < epochs; e += 2 {
		sc.Events = append(sc.Events, Event{Epoch: e, Kind: ControllerFail, Replica: seat})
		if e+2 < epochs {
			sc.Events = append(sc.Events, Event{Epoch: e + 2, Kind: ControllerRecover, Replica: seat})
		}
		seat = (seat + 1) % seats
	}
	for e := 0; e < epochs; e++ {
		sc.Events = append(sc.Events, Event{Epoch: e, Kind: DemandChurn, Factor: 0.1, Fraction: 0.2})
	}
	return sc
}

// Compose merges sub-timelines into one scenario: the union of every
// sub-scenario's events, ordered by epoch with ties broken by
// (sub-scenario position, within-sub position) — a stable merge, so the
// composite's timeline is a pure function of its inputs and replays
// deterministically like any hand-written one. Events scheduled at or
// beyond the composite's epoch count are dropped (sub-timelines built
// for a longer horizon truncate cleanly). The sub-scenarios' own Seed
// fields are ignored: all replay randomness derives from the
// composite's seed via the per-epoch RNG.
func Compose(name string, seed int64, epochs int, subs ...Scenario) Scenario {
	sc := Scenario{Name: name, Seed: seed, Epochs: epochs}
	for _, sub := range subs {
		for _, e := range sub.Events {
			if e.Epoch >= 0 && e.Epoch < epochs {
				sc.Events = append(sc.Events, e)
			}
		}
	}
	slices.SortStableFunc(sc.Events, func(a, b Event) int { return a.Epoch - b.Epoch })
	return sc
}

// Crisis returns the worst-day composite: a flash crowd breaks out while
// a shared-risk group is down and a maintenance window is draining yet
// another link — demand spikes into a network that is already short on
// capacity twice over. Built with Compose from the FlashCrowd,
// SRLGOutage and Maintenance timelines.
func Crisis(seed int64, epochs int, spike float64, arrivals int) Scenario {
	return Compose(
		fmt.Sprintf("crisis-%dep-x%.1f", epochs, spike),
		seed, epochs,
		FlashCrowd(seed, epochs, spike, arrivals),
		SRLGOutage(seed, epochs),
		Maintenance(seed, epochs),
	)
}

// DiurnalKillStorm returns the availability composite: the diurnal
// demand curve with controller replicas being killed and re-seated all
// day (ControllerKillStorm) — the HA control plane riding failovers
// while the workload keeps moving. Built with Compose from the Diurnal
// and ControllerKillStorm timelines.
func DiurnalKillStorm(seed int64, epochs, seats int) Scenario {
	return Compose(
		fmt.Sprintf("diurnal-kill-storm-%dep-s%d", epochs, seats),
		seed, epochs,
		Diurnal(seed, epochs, 0.4, 0),
		ControllerKillStorm(seed, epochs, seats),
	)
}

// Soak returns a sparse long-horizon timeline sized for soak replays:
// every `period` epochs the global demand factor steps along a diurnal
// sinusoid and a mild churn redraw fires, and once per eight periods a
// random link fails and recovers one period later. Event count is
// O(epochs/period) — a million-epoch soak's timeline stays a few tens
// of thousands of events — while the epochs between events replay as
// cheap quiescent rounds, which is exactly the shape a long-running
// controller sees.
func Soak(seed int64, epochs, period int) Scenario {
	if period < 1 {
		period = 1
	}
	sc := Scenario{
		Name:   fmt.Sprintf("soak-%dep-p%d", epochs, period),
		Seed:   seed,
		Epochs: epochs,
	}
	cycle := 0
	for e := 0; e < epochs; e += period {
		phase := 2 * math.Pi * float64(e) / float64(max(epochs, 1))
		sc.Events = append(sc.Events,
			Event{Epoch: e, Kind: DemandScale, Factor: 1 - 0.3*math.Cos(phase)},
			Event{Epoch: e, Kind: DemandChurn, Factor: 0.1, Fraction: 0.2},
		)
		if cycle%8 == 4 && e+period < epochs {
			sc.Events = append(sc.Events,
				Event{Epoch: e, Kind: LinkFail, Link: -1},
				Event{Epoch: e + period, Kind: LinkRecover, Link: -1},
			)
		}
		cycle++
	}
	return sc
}

// HeapBounded returns nil when a soak replay's heap stayed O(1) in epochs:
// every forced-GC watermark after the first — taken once the replay reached
// steady state — within a constant envelope of it, 1.5 times it plus 8 MiB
// of slack. A leak proportional to epochs (collected results, per-epoch
// buffers kept alive, an unbounded base history) blows through it at soak
// epoch counts. Otherwise the error names the first sample past the
// envelope, or too few samples to tell.
func HeapBounded(samples []uint64) error {
	if len(samples) < 3 {
		return fmt.Errorf("scenario: %d heap samples, need at least 3", len(samples))
	}
	limit := samples[0] + samples[0]/2 + 8<<20
	for i, s := range samples[1:] {
		if s > limit {
			return fmt.Errorf("scenario: heap watermark grew: sample 0 = %d bytes, sample %d = %d bytes (limit %d)",
				samples[0], i+1, s, limit)
		}
	}
	return nil
}

// canned maps each canned-scenario name to its default shape for an
// epoch count — the single registry ByName and Names derive from, so
// the lookup and its error can never drift apart.
var canned = []struct {
	name  string
	build func(seed int64, epochs int) Scenario
}{
	{"diurnal", func(seed int64, epochs int) Scenario { return Diurnal(seed, epochs, 0.4, 0.15) }},
	{"storm", func(seed int64, epochs int) Scenario {
		failures := epochs / 4
		if failures < 1 {
			failures = 1
		}
		return FailureStorm(seed, epochs, failures)
	}},
	{"flashcrowd", func(seed int64, epochs int) Scenario { return FlashCrowd(seed, epochs, 2.0, 8) }},
	{"maintenance", func(seed int64, epochs int) Scenario { return Maintenance(seed, epochs) }},
	{"srlg", func(seed int64, epochs int) Scenario { return SRLGOutage(seed, epochs) }},
	{"ctrlstorm", func(seed int64, epochs int) Scenario { return ControllerKillStorm(seed, epochs, 3) }},
	{"crisis", func(seed int64, epochs int) Scenario { return Crisis(seed, epochs, 2.0, 8) }},
	{"diurnalstorm", func(seed int64, epochs int) Scenario { return DiurnalKillStorm(seed, epochs, 3) }},
}

// Names lists the canned scenario names ByName resolves, in sorted
// order — the stable enumeration help text and the ByName error share.
func Names() []string {
	out := make([]string, len(canned))
	for i, c := range canned {
		out[i] = c.name
	}
	slices.Sort(out)
	return out
}

// ByName resolves a canned scenario by its short name (see Names) with
// that scenario's default shape for the given epoch count — the lookup
// the CLI front ends share. An unknown name's error enumerates every
// valid one.
func ByName(name string, seed int64, epochs int) (Scenario, error) {
	for _, c := range canned {
		if c.name == name {
			return c.build(seed, epochs), nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown canned scenario %q (valid names: %s)", name, strings.Join(Names(), ", "))
}
