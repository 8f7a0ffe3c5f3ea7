package ctrlplane

import (
	"slices"
	"time"

	"fubar/internal/graph"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// MergeStats folds per-switch stats replies into stats, the single
// EpochStats view the estimator consumes, reconstructing per-link byte
// counts from rule paths. Replies merge in ascending switch ID: the
// merged Rules order and every LinkBytes float sum follow the merge
// order, and a map's is random. stats is overwritten in place — its
// slices, each rule's Edges included, are reused when large enough — so
// whoever owns it must not retain any of them past the next merge.
func MergeStats(topo *topology.Topology, replies map[uint32]StatsReply, stats *sdnsim.EpochStats) {
	var idBuf [64]uint32 // a merge of up to 64 switches allocates no order
	ids := idBuf[:0]
	for id := range replies {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	nL := topo.NumLinks()
	rules := stats.Rules[:0]
	*stats = sdnsim.EpochStats{
		LinkBytes:     slices.Grow(stats.LinkBytes[:0], nL)[:nL],
		LinkCongested: slices.Grow(stats.LinkCongested[:0], nL)[:nL],
	}
	clear(stats.LinkBytes)
	clear(stats.LinkCongested)
	for _, id := range ids {
		r := replies[id]
		if int(r.Epoch) > stats.Epoch {
			stats.Epoch = int(r.Epoch)
		}
		if d := time.Duration(r.DurationMs) * time.Millisecond; d > stats.Duration {
			stats.Duration = d
		}
		for _, cr := range r.Counters {
			var edges []graph.EdgeID
			if len(rules) < cap(rules) { // the slot keeps an earlier merge's Edges
				edges = rules[:len(rules)+1][len(rules)].Edges[:0]
			}
			for _, l := range cr.Links {
				edges = append(edges, graph.EdgeID(l))
			}
			rules = append(rules, sdnsim.RuleCounter{
				Agg:       traffic.AggregateID(cr.Agg),
				Flows:     int(cr.Flows),
				Edges:     edges,
				Bytes:     cr.Bytes,
				Congested: cr.Congested,
			})
			for _, e := range edges {
				if int(e) < nL {
					stats.LinkBytes[e] += cr.Bytes
					if cr.Congested {
						stats.LinkCongested[e] = true
					}
				}
			}
		}
	}
	stats.Rules = rules
}
