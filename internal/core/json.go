package core

import (
	"encoding/json"

	"fubar/internal/pathgen"
)

// SolutionSummary is the JSON shape of a Solution: the headline numbers
// downstream tooling consumes, without the bundle list or the full model
// evaluation (exported separately when needed). MarshalJSON on Solution
// emits this, so `fubar -json` (and anything else marshaling a
// Solution) gets a stable machine-readable record instead of scraping
// table output.
type SolutionSummary struct {
	Utility           float64             `json:"utility"`
	InitialUtility    float64             `json:"initial_utility"`
	Steps             int                 `json:"steps"`
	Escalations       int                 `json:"escalations"`
	ElapsedNs         int64               `json:"elapsed_ns"`
	Stop              string              `json:"stop"`
	PathsPerAggregate float64             `json:"paths_per_aggregate"`
	Bundles           int                 `json:"bundles"`
	Delta             flowmodelDeltaStats `json:"delta"`
	Base              BaseStats           `json:"base"`
	Paths             pathgen.Stats       `json:"paths"`
	RefutedBundles    int                 `json:"refuted_bundles"`
	RefutedByLevel    int                 `json:"refuted_by_level"`
}

// flowmodelDeltaStats mirrors flowmodel.DeltaStats with JSON tags (the
// flowmodel type is tag-free by design — it is a counter block, not a
// record).
type flowmodelDeltaStats struct {
	Calls           int64 `json:"calls"`
	Fallbacks       int64 `json:"fallbacks"`
	Expansions      int64 `json:"expansions"`
	AffectedBundles int64 `json:"affected_bundles"`
	ListBundles     int64 `json:"list_bundles"`
}

// Summary condenses the solution into its JSON record.
func (s *Solution) Summary() SolutionSummary {
	return SolutionSummary{
		Utility:           s.Utility,
		InitialUtility:    s.InitialUtility,
		Steps:             s.Steps,
		Escalations:       s.Escalations,
		ElapsedNs:         s.Elapsed.Nanoseconds(),
		Stop:              s.Stop.String(),
		PathsPerAggregate: s.PathsPerAggregate,
		Bundles:           len(s.Bundles),
		Delta: flowmodelDeltaStats{
			Calls:           s.Delta.Calls,
			Fallbacks:       s.Delta.Fallbacks,
			Expansions:      s.Delta.Expansions,
			AffectedBundles: s.Delta.AffectedBundles,
			ListBundles:     s.Delta.ListBundles,
		},
		Base:           s.Base,
		Paths:          s.Paths,
		RefutedBundles: s.RefutedBundles,
		RefutedByLevel: s.RefutedByLevel,
	}
}

// MarshalJSON emits the solution's Summary.
func (s *Solution) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Summary())
}

// MarshalText names the stop reason, so StopReason fields render as
// strings wherever text marshaling applies.
func (r StopReason) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}
