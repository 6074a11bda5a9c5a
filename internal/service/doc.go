// Package service is minnowd: a long-running, sharded simulation
// service in front of the Minnow simulator. Clients POST simulation
// jobs (a benchmark name plus a minnow.Config JSON) to an HTTP API; a
// priority queue feeds a pool of worker shards that execute each job
// through the same harness.RunJobs machinery the batch sweep tools use
// (minnow.RunMany with panic isolation, the PR 3 watchdog bounding
// runaway simulations via Config.MaxCycles); finished results land in a
// content-addressed cache (see the cache subpackage) keyed by a
// canonical hash of the validated configuration, so identical
// submissions — whether a repeated curl or a million-cell sweep with
// duplicate configurations — simulate exactly once.
//
// Determinism contract: every Minnow run is bit-reproducible — the
// same validated Config always produces the same stats.RunSummary and
// SummaryHash — which is what makes caching sound: a cache hit returns
// the stored RunSummary byte-identical to what a cold run would
// produce. CacheKey canonicalizes the configuration first (defaults
// resolved, host-only and observe-only knobs excluded; the rules are
// documented on CacheKey and in docs/SERVICE.md), and the cache refuses
// to overwrite an entry with a different SummaryHash, so a determinism
// regression surfaces as an explicit conflict instead of silently
// corrupting results.
//
// Concurrency contract: Server state (queue, job table, singleflight
// registry, metrics counters) is guarded by one mutex; simulations run
// outside it on the worker shards. A job is one submission; the
// simulation it waits on is its flight, the one queued or running
// execution of its key. Concurrent duplicate submissions attach to
// their key's flight (singleflight) rather than queueing a second
// simulation; the queue holds flights, each in the place of its oldest
// live submission, and the flight owns the run's status, cancel flag,
// stream subscribers, and progress checkpoints. Progress
// fan-out (the /jobs/{id}/stream SSE feed) consumes the simulator's
// OnSample callback, which fires on the simulation goroutine: the
// publisher only copies the sample under the lock and never blocks on
// slow subscribers (each subscriber channel is buffered and lossy), so
// streaming cannot stall or perturb a simulation. Shutdown drains:
// accepted jobs finish, new submissions are refused with 503.
//
// Durability contract: with a journal configured (Config.JournalPath),
// every accepted job is recorded — fsync'd — before the API
// acknowledges it, and its terminal outcome when reached, so a kill -9
// loses nothing: the next start replays the journal, re-enqueues
// never-completed jobs (determinism guarantees the re-run reproduces
// the exact SummaryHash the lost run would have), serves completed ones
// from the cache, and reports how far crashed runs got via their last
// epoch checkpoint. Replay appends nothing and compacts the journal to
// records that replay to the same state, so a double restart is a
// no-op — the second one does not even rewrite the file. Replay reads
// no cached result: a done job attaches its cache entry on first read.
// See the journal subpackage for the record format.
//
// Cancellation contract: DELETE /jobs/{id} cancels a queued job before
// the response returns; a running job's simulation observes its cancel
// flag (wired to minnow.Config.Cancel, polled on the watchdog cadence)
// within one poll interval, stops, and writes nothing to the cache.
// Cancellation is per-submission: canceling one of several coalesced
// duplicates detaches only that submission from their flight, and it
// ends at once, while the shared simulation keeps running for the
// survivors. Only the last live submission of a running flight stops
// the simulation; it ends with the flight.
//
// Tracing contract: every submission carries a correlation ID (client-
// supplied or server-generated) and lifecycle stamps, rendered by the
// tracing subpackage as a merged Chrome-trace/Perfetto document (the
// service's queue-wait/dispatch/exec/cache-write spans alongside the
// simulator's own timeline, GET /jobs/{id}/trace), observed into
// queue-wait/exec/sojourn/cache-write latency histograms on /metrics,
// and recorded in a fixed-size flight-recorder ring dumped on
// panic/watchdog/SIGTERM (GET /debug/flightrec live). Tracing is
// observe-only: summary hashes, cache keys, and what the journal
// replays are byte-identical with it on or off — span timestamps
// piggyback on journal records the replay path already reads, and
// TestTracingInert pins the contract.
//
// Client is the Go side of the HTTP API: Submit, Cancel, Get, Wait
// (following the SSE feed to its done event) and Ready. Every non-2xx
// response comes back wrapping a *RequestError; retrying is left to
// the caller. cmd/minnowload and this package's tests use it.
package service
