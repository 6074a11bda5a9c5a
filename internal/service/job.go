package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"

	"minnow"
)

// ConfigSpec is minnow.Config in its POST /jobs and journal wire form:
// the same fields, names, and JSON tags, so any document that unmarshals
// into minnow.Config unmarshals identically here. The Go function hooks
// (CustomPrefetch, OnSample, Cancel) are tagged json:"-" and have no wire
// form; the server re-wires them on execution. See minnow.Config for
// per-field semantics. Two zero values take server defaults: MaxCycles
// adopts -job-max-cycles and IntraJobs adopts -intra-jobs. MetricsEvery
// also sets the /jobs/{id}/stream event cadence. The cache key hashes
// this same form of the resolved configuration (see CacheKey).
type ConfigSpec minnow.Config

// ToConfig converts the wire form to the simulator's configuration.
func (c ConfigSpec) ToConfig() minnow.Config { return minnow.Config(c) }

// JobSpec is the POST /jobs request body.
type JobSpec struct {
	// Bench names the benchmark to simulate (minnow.Benchmarks()).
	Bench string `json:"bench"`
	// Config is the simulation configuration (minnow.Config JSON).
	Config ConfigSpec `json:"config"`
	// Priority orders the queue: higher runs first; equal priorities run
	// in submission order. Default 0.
	Priority int `json:"priority,omitempty"`
	// Corr is an optional client correlation ID (also settable via the
	// X-Correlation-ID header; the body wins when both are present). It
	// threads through the job's lifecycle trace, flight-recorder events,
	// and journal submit record, and is echoed in every JobView — but it
	// is excluded from the cache key, so differently-correlated identical
	// submissions still hit the same entry. Empty picks a server-generated
	// ID. Control characters are stripped and length is capped at 128.
	Corr string `json:"corr,omitempty"`
}

// keyExcluded indexes the minnow.Config fields tagged knob:"host" or
// knob:"observe", found once by reflection on the tag.
var keyExcluded = func() (idx []int) {
	t := reflect.TypeOf(minnow.Config{})
	for i := 0; i < t.NumField(); i++ {
		if class := t.Field(i).Tag.Get("knob"); class == "host" || class == "observe" {
			idx = append(idx, i)
		}
	}
	return idx
}()

// CacheKey computes the content-address of a validated configuration:
// the sha256 of the canonical key document, plus the document itself,
// which entries store as the debuggable "what question does this entry
// answer" record. The document is {"v":3,"bench":…,"config":…}, where
// config is the resolved configuration in its ConfigSpec wire form.
//
// Canonicalization rules (documented for clients in docs/SERVICE.md):
//
//   - Defaults are resolved first (minnow.Config.WithDefaults), so an
//     explicit default and an omitted field address the same entry. The
//     resolved Scheduler carries the engine choice, so Minnow is left
//     out. MaxCycles is keyed as given, after the server's default.
//   - Fields tagged knob:"host" or knob:"observe" on minnow.Config are
//     zeroed: they cannot change the RunSummary (TestTaggedKnobsInert
//     in package minnow). Artifact-bearing requests that miss an
//     artifact-less entry re-simulate and upgrade the entry in place,
//     hash-checked. The function hooks have no wire form at all.
//   - Every other field participates — Faults and Arrivals verbatim,
//     plan seeds included — because each can change the deterministic
//     outcome (TestCacheKeyExclusions checks the key follows the tags).
//
// V guards the schema: a change to these rules bumps it, which re-keys
// every existing entry rather than serving stale answers. V2 added the
// arrivals field; V3 replaced the hand-written document with the wire
// form.
func CacheKey(bench string, cfg minnow.Config) (key string, doc []byte) {
	r := cfg.WithDefaults()
	r.Minnow = false // the resolved Scheduler carries the engine choice
	v := reflect.ValueOf(&r).Elem()
	for _, i := range keyExcluded {
		v.Field(i).SetZero()
	}
	doc, err := json.Marshal(struct {
		V      int           `json:"v"`
		Bench  string        `json:"bench"`
		Config minnow.Config `json:"config"`
	}{3, bench, r})
	if err != nil {
		// The hooks are json:"-"; the rest is plain data.
		panic("service: cache key marshal: " + err.Error())
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), doc
}

// Job statuses reported by the API. Lifecycle: queued → running →
// done | failed | canceled. Cache hits are born done. Canceled covers
// every abandonment path: a client DELETE while queued (immediate), a
// client DELETE while running (the simulation stops within one
// cancel-poll interval and writes nothing to the cache), and server
// shutdown before execution.
const (
	// StatusQueued marks a job waiting for a worker shard.
	StatusQueued = "queued"
	// StatusRunning marks a job currently simulating (or coalesced onto
	// a simulating primary).
	StatusRunning = "running"
	// StatusDone marks a job whose result is available.
	StatusDone = "done"
	// StatusFailed marks a job whose simulation errored; the Error field
	// carries the message.
	StatusFailed = "failed"
	// StatusCanceled marks a job abandoned before producing a result:
	// canceled by DELETE /jobs/{id} (queued or mid-run) or by shutdown.
	StatusCanceled = "canceled"
)

// terminal reports whether a status ends a job's lifecycle.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// JobView is the API representation of a job (POST /jobs and
// GET /jobs/{id} responses).
type JobView struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// Corr is the job's correlation ID: the client's (JobSpec.Corr or the
	// X-Correlation-ID header) or a server-generated one.
	Corr string `json:"corr,omitempty"`
	// Bench is the benchmark name.
	Bench string `json:"bench"`
	// Key is the content-address of the job's canonical configuration.
	Key string `json:"key"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Cached reports the result was served from the cache (or coalesced
	// onto another job's simulation) instead of a fresh simulation.
	Cached bool `json:"cached"`
	// Coalesced reports this job attached to an identical in-flight
	// submission (singleflight) rather than hitting the stored cache.
	Coalesced bool `json:"coalesced,omitempty"`
	// Priority echoes the submitted queue priority.
	Priority int `json:"priority,omitempty"`
	// Recovered reports the job was reconstructed from the journal after
	// a restart rather than submitted to this process.
	Recovered bool `json:"recovered,omitempty"`
	// CheckpointCycles is the simulated cycle stamp of the job's most
	// recent progress checkpoint (0 until the first interval sample);
	// for recovered jobs it reports how far the crashed run got.
	CheckpointCycles int64 `json:"checkpoint_cycles,omitempty"`
	// Error carries the failure message when Status is "failed".
	Error string `json:"error,omitempty"`
	// QueuedAtNS is the submission wall-clock stamp in Unix nanoseconds.
	// Together with StartedAtNS and DoneAtNS it lets clients derive
	// queue-wait and sojourn latencies without scraping /metrics;
	// GET /jobs/{id}/trace renders the same stamps as spans.
	QueuedAtNS int64 `json:"queued_at_ns,omitempty"`
	// StartedAtNS is the worker-dispatch stamp in Unix nanoseconds (for
	// coalesced followers, when the shared flight dispatched); 0 until
	// the job runs — born-done cache hits never do.
	StartedAtNS int64 `json:"started_at_ns,omitempty"`
	// DoneAtNS is the terminal stamp in Unix nanoseconds; 0 until the
	// job reaches a terminal status.
	DoneAtNS int64 `json:"done_at_ns,omitempty"`
	// SummaryHash is the run's deterministic fingerprint (set when done).
	SummaryHash string `json:"summary_hash,omitempty"`
	// Summary is the canonical stats.RunSummary JSON (set when done),
	// byte-identical between cache hits and cold runs.
	Summary json.RawMessage `json:"summary,omitempty"`
	// Result is the full minnow.Result JSON including artifacts,
	// included only when the request asked for it (?full=1).
	Result json.RawMessage `json:"result,omitempty"`
}

// ProgressEvent is one /jobs/{id}/stream server-sent event payload: an
// interval-metrics sample republished from the simulator's OnSample
// probe.
type ProgressEvent struct {
	// Cycles is the simulated cycle stamp of the crossed sample boundary.
	Cycles int64 `json:"cycles"`
	// Metrics is the sample in Prometheus text exposition format.
	Metrics string `json:"metrics"`
}
