package stats

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// RunSummary is the JSON-serializable deterministic digest of a Run: every
// counter the simulator guarantees to reproduce for a given configuration
// and seed, and nothing else. The observability attachments are excluded
// by design: the event trace is a bounded ring whose contents depend on
// its configured depth, the interval registry and timeline depend on
// the operator-chosen sampling interval, and the cycle-attribution
// profile is a refinement of counters already summarized — none of them
// may influence (or be influenced by) anything summarized here. Enabling observability must
// leave the summary byte-identical; the harness obs tests assert it. Two
// runs of the same configuration must produce byte-identical summaries;
// VerifyDeterminism and the -race harness tests compare them. Run embeds
// the summary beside the attachments it excludes.
type RunSummary struct {
	Name       string `json:"name"`        // benchmark name
	Threads    int    `json:"threads"`     // simulated core count
	WallCycles int64  `json:"wall_cycles"` // end-to-end simulated cycles
	SimSteps   int64  `json:"sim_steps"`   // discrete-event actor steps executed by the scheduler
	TimedOut   bool   `json:"timed_out"`   // hit the work budget (Fig. 3 "timed out" bars)

	Cores   []CoreStats   `json:"cores"`             // per-core breakdowns, indexed by core ID
	L2      CacheStats    `json:"l2"`                // aggregated over all L2s
	L3      CacheStats    `json:"l3"`                // aggregated over all L3 banks
	Engines []EngineStats `json:"engines,omitempty"` // per-engine activity (Minnow runs only)

	WorkItems   int64    `json:"work_items"`   // operator applications (work-efficiency metric)
	DRAMReads   int64    `json:"dram_reads"`   // lines read from DRAM
	DRAMRows    int64    `json:"dram_rows"`    // distinct DRAM row activations (diagnostics)
	InvMsgs     int64    `json:"inv_msgs"`     // coherence invalidation messages
	DRAMStall   int64    `json:"dram_stall"`   // cycles requests queued at busy DRAM channels
	NoCStall    int64    `json:"noc_stall"`    // cycles flits waited for mesh links
	AvgLoadLat  float64  `json:"avg_load_lat"` // mean demand-load latency (diagnostics)
	DirtyRemote int64    `json:"dirty_remote"` // reads served from remote modified copies
	LatByLevel  [5]int64 `json:"lat_by_level"` // summed demand-load latency by supplying level
	CntByLevel  [5]int64 `json:"cnt_by_level"` // demand-load count by supplying level

	// Prefetch waste attribution (diagnostics).
	WastePFEvict     int64 `json:"waste_pf_evict"`     // prefetched lines evicted by later prefetches
	WasteDemandEvict int64 `json:"waste_demand_evict"` // prefetched lines evicted by demand fills
	WasteInval       int64 `json:"waste_inval"`        // prefetched lines lost to invalidations
	L1Shielded       int64 `json:"l1_shielded"`        // L2 prefetch hits hidden behind L1 hits

	// Faults aggregates injected-fault activity; nil when fault injection
	// was off (part of the summary, since injected faults are fully
	// deterministic for a given plan).
	Faults *FaultStats `json:"faults,omitempty"`

	// Latency aggregates open-loop arrival latency; nil when no arrival
	// plan was armed (part of the summary, since arrivals are fully
	// deterministic for a given plan).
	Latency *LatencyStats `json:"latency,omitempty"`
}

// Summary returns the deterministic portion of the run for cross-run
// comparison and serialization.
func (r *Run) Summary() RunSummary { return r.RunSummary }

// JSON renders the summary in canonical form (encoding/json emits struct
// fields in declaration order, so equal summaries marshal identically).
func (s RunSummary) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Only unsupported types can fail here, and the summary has none.
		panic("stats: summary marshal: " + err.Error())
	}
	return b
}

// Hash returns a stable hex digest of the summary's canonical JSON, the
// per-core-stats fingerprint the determinism checker compares across
// repeated runs.
func (s RunSummary) Hash() string {
	sum := sha256.Sum256(s.JSON())
	return hex.EncodeToString(sum[:])
}
