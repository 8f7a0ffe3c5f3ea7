package ctrlplane

import (
	"time"

	"fubar/internal/graph"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// MergeStats folds per-switch stats replies into the single EpochStats
// view the estimator consumes, reconstructing per-link byte counts from
// rule paths.
func MergeStats(topo *topology.Topology, replies map[uint32]StatsReply) *sdnsim.EpochStats {
	stats := &sdnsim.EpochStats{
		LinkBytes:     make([]float64, topo.NumLinks()),
		LinkCongested: make([]bool, topo.NumLinks()),
	}
	for _, r := range replies {
		if int(r.Epoch) > stats.Epoch {
			stats.Epoch = int(r.Epoch)
		}
		if d := time.Duration(r.DurationMs) * time.Millisecond; d > stats.Duration {
			stats.Duration = d
		}
		for _, cr := range r.Counters {
			edges := make([]graph.EdgeID, len(cr.Links))
			for i, l := range cr.Links {
				edges[i] = graph.EdgeID(l)
			}
			stats.Rules = append(stats.Rules, sdnsim.RuleCounter{
				Agg:       traffic.AggregateID(cr.Agg),
				Flows:     int(cr.Flows),
				Edges:     edges,
				Bytes:     cr.Bytes,
				Congested: cr.Congested,
			})
			for _, e := range edges {
				if int(e) < len(stats.LinkBytes) {
					stats.LinkBytes[e] += cr.Bytes
					if cr.Congested {
						stats.LinkCongested[e] = true
					}
				}
			}
		}
	}
	return stats
}
