package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"minnow"
)

// ConfigSpec is minnow.Config in its POST /jobs and journal wire form:
// the same fields, names, and JSON tags, so any document that unmarshals
// into minnow.Config unmarshals identically here. The Go function hooks
// (CustomPrefetch, OnSample, Cancel) are tagged json:"-" and have no wire
// form; the server re-wires them on execution. See minnow.Config for
// per-field semantics. Two zero values take server defaults: MaxCycles
// adopts -job-max-cycles and IntraJobs adopts -intra-jobs. MetricsEvery
// also sets the /jobs/{id}/stream event cadence.
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

// keyDoc is the canonical cache-key document: the semantically
// significant subset of a validated configuration, defaults resolved,
// in a fixed field order. Its JSON is hashed into the cache key, and
// stored alongside entries as the debuggable "what question does this
// entry answer" record. V guards the schema: any change to the
// canonicalization rules must bump it, which invalidates (re-keys)
// every existing cache entry rather than serving stale answers.
type keyDoc struct {
	// V is the key schema version.
	V int `json:"v"`
	// Bench is the exact benchmark name.
	Bench string `json:"bench"`
	// Threads is the resolved simulated core count.
	Threads int `json:"threads"`
	// Scale is the resolved input scale.
	Scale int `json:"scale"`
	// Seed is the resolved generator seed.
	Seed uint64 `json:"seed"`
	// Scheduler is the resolved worklist policy ("minnow" when the
	// engine owns the worklist).
	Scheduler string `json:"scheduler"`
	// Prefetch mirrors Config.Prefetch.
	Prefetch bool `json:"prefetch"`
	// Credits is the resolved prefetch credit pool.
	Credits int `json:"credits"`
	// LgInterval is the bucket-interval override, -1 when unset (the
	// benchmark's tuned default applies).
	LgInterval int `json:"lg_interval"`
	// HWPrefetcher mirrors Config.HWPrefetcher.
	HWPrefetcher string `json:"hw_prefetcher"`
	// SplitThreshold mirrors Config.SplitThreshold.
	SplitThreshold int32 `json:"split_threshold"`
	// WorkBudget mirrors Config.WorkBudget.
	WorkBudget int64 `json:"work_budget"`
	// Serial mirrors Config.Serial.
	Serial bool `json:"serial"`
	// MemChannels is the resolved DRAM channel count.
	MemChannels int `json:"mem_channels"`
	// PerfectBP mirrors Config.PerfectBP.
	PerfectBP bool `json:"perfect_bp"`
	// NoFences mirrors Config.NoFences.
	NoFences bool `json:"no_fences"`
	// Faults is the fault-plan expression (seed included), verbatim.
	Faults string `json:"faults"`
	// Arrivals is the arrival-plan expression (seed included), verbatim.
	// Arrivals change the deterministic outcome (injected tasks and
	// latency stats), so two jobs differing only here must address
	// different entries.
	Arrivals string `json:"arrivals"`
	// Invariants mirrors Config.Invariants.
	Invariants bool `json:"invariants"`
	// MaxCycles is the resolved watchdog cycle bound (after the server's
	// default is applied), since it can change a run's outcome.
	MaxCycles int64 `json:"max_cycles"`
	// SharedHorizons mirrors Config.SharedHorizons: it changes the step
	// schedule, so it keys separately.
	SharedHorizons bool `json:"shared_horizons"`
}

// CacheKey computes the content-address of a validated configuration:
// the sha256 of the canonical key document, plus the document itself.
//
// Canonicalization rules (documented for clients in docs/SERVICE.md):
//
//   - Defaults are resolved first: Threads 0→8, Scale 0→1, Seed 0→42,
//     Credits 0→32, MemChannels 0→12, and Scheduler ""→"obim" ("minnow"
//     whenever Config.Minnow is set), so an explicit default and an
//     omitted field address the same entry.
//   - Host-only knobs are excluded: IntraJobs and EpochWindow carry the
//     bound/weave engine's byte-identical-output guarantee, so they can
//     never change a result. (The function hooks — Cancel, OnSample,
//     CustomPrefetch — have no wire form at all: a canceled run never
//     produces a result to cache, and a run the hooks never fire on is
//     byte-identical to one without them.)
//   - Observe-only knobs are excluded: TraceEvents, MetricsEvery,
//     Timeline, and Profile are provably inert on the RunSummary (the
//     obs test suites pin it). Artifact-bearing requests that miss an
//     artifact-less entry re-simulate and upgrade the entry in place,
//     hash-checked.
//   - SkipVerify is excluded: it only affects whether a failed
//     verification surfaces as an error, and errors are never cached.
//   - Everything else — including Faults and Arrivals (their plan seeds
//     included), MaxCycles, and SharedHorizons — participates, because
//     each can change the deterministic outcome.
func CacheKey(bench string, cfg minnow.Config) (key string, doc []byte) {
	d := keyDoc{
		// V bumped 1→2 when the arrivals field joined the document; old
		// entries re-key rather than colliding with open-loop runs.
		V:     2,
		Bench: bench,

		Threads:        resolve(cfg.Threads, 8),
		Scale:          resolve(cfg.Scale, 1),
		Seed:           cfg.Seed,
		Scheduler:      cfg.Scheduler,
		Prefetch:       cfg.Prefetch,
		Credits:        resolve(cfg.Credits, 32),
		LgInterval:     -1,
		HWPrefetcher:   cfg.HWPrefetcher,
		SplitThreshold: cfg.SplitThreshold,
		WorkBudget:     cfg.WorkBudget,
		Serial:         cfg.Serial,
		MemChannels:    resolve(cfg.MemChannels, 12),
		PerfectBP:      cfg.PerfectBP,
		NoFences:       cfg.NoFences,
		Faults:         cfg.Faults,
		Arrivals:       cfg.Arrivals,
		Invariants:     cfg.Invariants,
		MaxCycles:      cfg.MaxCycles,
		SharedHorizons: cfg.SharedHorizons,
	}
	if d.Seed == 0 {
		d.Seed = 42
	}
	if cfg.Minnow {
		d.Scheduler = "minnow"
	} else if d.Scheduler == "" {
		d.Scheduler = "obim"
	}
	if cfg.LgInterval != nil {
		d.LgInterval = int(*cfg.LgInterval)
	}
	doc, err := json.Marshal(d)
	if err != nil {
		// keyDoc contains only plain data types; Marshal cannot fail.
		panic("service: cache key marshal: " + err.Error())
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), doc
}

// resolve substitutes the documented default for a zero-valued knob.
func resolve(v, def int) int {
	if v == 0 {
		return def
	}
	return v
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
