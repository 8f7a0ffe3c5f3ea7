package scenario

import (
	"fmt"

	"fubar/internal/report"
)

// TrajectoryPoint is one downsampled bucket of a replay's convergence
// and churn behavior: consecutive epochs folded into means (utilities)
// and sums (effort and churn counters).
type TrajectoryPoint struct {
	// Epoch is the first epoch folded into this point; Epochs is how
	// many consecutive epochs it covers.
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs"`
	// StaleUtility / Utility are the bucket's mean pre- and
	// post-re-optimization network utilities.
	StaleUtility float64 `json:"stale_utility"`
	Utility      float64 `json:"utility"`
	// Steps is the bucket's committed optimizer moves; FlowMods and
	// FlowsMoved its estimated flow-table churn; WireFlowMods the
	// FlowMod messages actually written (closed-loop replays only).
	Steps        int `json:"steps"`
	FlowMods     int `json:"flow_mods"`
	FlowsMoved   int `json:"flows_moved"`
	WireFlowMods int `json:"wire_flow_mods,omitempty"`
	// Misses counts epochs whose optimization ran out of its wall-clock
	// budget; Misses/Epochs is the bucket's deadline-miss rate.
	Misses int `json:"deadline_misses"`
}

// MissRate is the bucket's deadline-miss fraction.
func (p TrajectoryPoint) MissRate() float64 {
	if p.Epochs == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Epochs)
}

// Trajectory is one scenario family's downsampled replay time series —
// the convergence/churn trajectory the bench records per family instead
// of a single end-state number. Points partition the epoch range in
// order.
type Trajectory struct {
	Family string            `json:"family"`
	Epochs int               `json:"epochs"`
	Points []TrajectoryPoint `json:"points"`
}

// TrajectoryRecorder folds a replay's epoch rows into a fixed number of
// buckets as they stream by. Memory is O(points) regardless of the
// replay length, so a million-epoch soak records its trajectory without
// collecting the epoch table.
type TrajectoryRecorder struct {
	family string
	epochs int
	points []TrajectoryPoint
}

// NewTrajectoryRecorder sizes a recorder for a replay of the given
// epoch count downsampled to at most points buckets (minimum 1; capped
// at the epoch count).
func NewTrajectoryRecorder(family string, epochs, points int) *TrajectoryRecorder {
	if epochs < 1 {
		epochs = 1
	}
	if points < 1 {
		points = 1
	}
	if points > epochs {
		points = epochs
	}
	return &TrajectoryRecorder{family: family, epochs: epochs, points: make([]TrajectoryPoint, points)}
}

// Observe folds one epoch row into its bucket. Rows must carry epoch
// indices in [0, epochs); anything outside is clamped into range.
func (r *TrajectoryRecorder) Observe(er *EpochResult) {
	e := er.Epoch
	if e < 0 {
		e = 0
	}
	if e >= r.epochs {
		e = r.epochs - 1
	}
	p := &r.points[e*len(r.points)/r.epochs]
	if p.Epochs == 0 || er.Epoch < p.Epoch {
		p.Epoch = er.Epoch
	}
	p.Epochs++
	p.StaleUtility += er.StaleUtility
	p.Utility += er.Utility
	p.Steps += er.Steps
	p.FlowMods += er.FlowMods
	p.FlowsMoved += er.FlowsMoved
	p.WireFlowMods += er.WireFlowMods
	if er.DeadlineMiss {
		p.Misses++
	}
}

// Trajectory finalizes the recorded series: sums become means where the
// point semantics call for them, empty buckets are dropped.
func (r *TrajectoryRecorder) Trajectory() Trajectory {
	tr := Trajectory{Family: r.family, Epochs: r.epochs}
	for _, p := range r.points {
		if p.Epochs == 0 {
			continue
		}
		p.StaleUtility /= float64(p.Epochs)
		p.Utility /= float64(p.Epochs)
		tr.Points = append(tr.Points, p)
	}
	return tr
}

// Table renders the trajectory as a report table: one row per bucket
// with the mean utilities, optimizer effort, churn and deadline-miss
// rate — the per-family view the bench and CLI front ends share.
func (tr Trajectory) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("trajectory %s (%d epochs)", tr.Family, tr.Epochs),
		"epoch", "epochs", "stale", "utility", "steps", "flowmods", "moved", "wiremods", "miss%",
	)
	for _, p := range tr.Points {
		t.AddRow(p.Epoch, p.Epochs,
			fmt.Sprintf("%.4f", p.StaleUtility), fmt.Sprintf("%.4f", p.Utility),
			p.Steps, p.FlowMods, p.FlowsMoved, p.WireFlowMods,
			fmt.Sprintf("%.0f", 100*p.MissRate()))
	}
	return t
}
