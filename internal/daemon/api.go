package daemon

// Wire types of the HTTP+JSON API. Every request and response body is
// one of these records (or a core.SolutionSummary / scenario.EpochResult,
// which carry their own JSON shapes); the replay stream is JSON Lines —
// one EpochResult object per line, with a final {"error": ...} line when
// the stream ends early.

// CreateTenantRequest is the body of POST /v1/tenants. Exactly one of
// Topology (inline plain-text topology, see topology.Parse) or Preset
// must be set.
type CreateTenantRequest struct {
	// ID names the tenant in every later URL. Optional: the daemon
	// assigns t1, t2, ... when empty. Must be URL-path-safe (letters,
	// digits, '-', '_', '.').
	ID string `json:"id,omitempty"`
	// Preset names a canned instance: "provisioned",
	// "underprovisioned", "prioritized", "relaxed-delay" (the paper's
	// §3 configurations on the HE backbone), "hebench" (the benchmark
	// HE instance), or any scale preset (metro/regional/...; see
	// scenario.ScalePresetByName).
	Preset string `json:"preset,omitempty"`
	// Topology is an inline topology in the plain-text format
	// ("topology name\nlink A B 100Mbps 5ms\n..."), as an alternative
	// to Preset. The traffic matrix is generated from Seed.
	Topology string `json:"topology,omitempty"`
	// CapacityMbps overrides every link capacity of an inline
	// topology; 0 keeps the declared capacities, and a negative value
	// is a 400. A preset keeps its own capacities: any nonzero value
	// with a preset is a 400.
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`
	// Aggregates bounds the generated matrix of an inline topology to
	// a sparse sample of that many aggregates; 0 generates the full
	// all-pairs matrix. Either may hold at most 65,536 aggregates: a
	// negative count, or a larger sample or full matrix, is a 400. A
	// preset brings its own matrix: any nonzero count with a preset is
	// a 400.
	Aggregates int `json:"aggregates,omitempty"`
	// Seed drives the tenant's traffic generation (and preset
	// materialization). Tenants with equal instance inputs and seeds
	// are bit-identical.
	Seed int64 `json:"seed,omitempty"`
	// Workers is this tenant's worker budget: how many of the daemon's
	// global worker tokens one of its optimize/replay calls may hold.
	// 0 takes the daemon default, a negative value is a 400, and values
	// above the global cap are clamped to it.
	Workers int `json:"workers,omitempty"`
}

// TenantInfo describes one registered tenant (create/get/list
// responses).
type TenantInfo struct {
	ID         string `json:"id"`
	Topology   string `json:"topology"`
	Nodes      int    `json:"nodes"`
	Links      int    `json:"links"`
	Aggregates int    `json:"aggregates"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
}

// TenantList is the body of GET /v1/tenants.
type TenantList struct {
	Tenants []TenantInfo `json:"tenants"`
}

// OptimizeRequest is the optional body of POST /v1/tenants/{id}/optimize.
type OptimizeRequest struct {
	// TimeoutMs bounds the optimization wall time via a context
	// deadline; 0 means no deadline beyond the client connection.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// ErrorResponse is every non-2xx body, and the final line of a replay
// stream that ended early (an EpochResult line never has an "error"
// key, so stream consumers can tell them apart).
type ErrorResponse struct {
	Error string `json:"error"`
}
