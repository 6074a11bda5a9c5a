package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
)

// Handler returns the minnowd HTTP API:
//
//	POST   /jobs             submit a job (JobSpec JSON) → JobView
//	GET    /jobs             list jobs, newest first
//	GET    /jobs/{id}        job status/result (?full=1 adds minnow.Result)
//	DELETE /jobs/{id}        cancel a job (queued: immediate; running:
//	                         within one cancel-poll interval)
//	GET    /jobs/{id}/stream SSE progress events (sample*, then done)
//	GET    /jobs/{id}/trace  merged lifecycle + simulation trace
//	                         (Chrome-trace JSON for ui.perfetto.dev)
//	GET    /metrics          Prometheus text exposition (service counters
//	                         and lifecycle latency histograms)
//	GET    /debug/flightrec  flight-recorder snapshot (JSONL, oldest first)
//	GET    /healthz          liveness ("ok", or 503 while draining)
//	GET    /                 human-readable index
//
// Error bodies are plain text; validation failures carry the
// minnow.Config.Validate message verbatim with status 400, and a submit
// body over 1 MiB is refused with 413. Backpressure
// responses — 429 (queue full) and 503 (draining) — carry a Retry-After
// header. See docs/SERVICE.md for the full API reference.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrec", s.handleFlightRec)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

// Serve listens on addr and serves the API until the listener closes;
// it returns the bound listener so callers using ":0" can discover the
// port. The returned stop function closes the listener (Shutdown still
// drains the workers separately).
func (s *Server) Serve(addr string) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("service: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return ln.Addr().String(), srv.Close, nil
}

// fail writes an API error, mapping RequestError codes (and the
// Retry-After backoff hint on backpressure responses) through.
func fail(w http.ResponseWriter, err error) {
	var re *RequestError
	if errors.As(err, &re) {
		if re.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(re.RetryAfter))
		}
		http.Error(w, re.Msg, re.Code)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// writeJSON renders one API response. Output is compact, never
// re-indented: embedded json.RawMessage payloads (the cached RunSummary
// in particular) must reach the client byte-identical to the producing
// run, and an indenting encoder would reformat them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-body; nothing to do
}

// maxSubmitBody bounds a POST /jobs body; a JobSpec is a few hundred
// bytes.
const maxSubmitBody = 1 << 20

// handleSubmit is POST /jobs. A body over maxSubmitBody is refused with
// 413 before anything is journaled.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "service: bad request body: "+err.Error(), code)
		return
	}
	if spec.Corr == "" {
		spec.Corr = r.Header.Get("X-Correlation-ID")
	}
	v, err := s.Submit(spec)
	if err != nil {
		fail(w, err)
		return
	}
	status := http.StatusAccepted
	if v.Status == StatusDone {
		status = http.StatusOK // cache hit: the result is already here
	}
	writeJSON(w, status, v)
}

// handleCancel is DELETE /jobs/{id}: cancel the job and return its
// (possibly already terminal — cancellation is idempotent) view. A
// queued job is canceled before the response; a running job's
// simulation stops within one cancel-poll interval, so the returned
// status may still read "running" — poll GET /jobs/{id} for the
// terminal "canceled".
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleList is GET /jobs.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

// handleJob is GET /jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"), r.URL.Query().Get("full") == "1")
	if !ok {
		http.Error(w, "service: unknown job "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleStream is GET /jobs/{id}/stream: a server-sent-event feed of
// interval-metric progress samples (event "sample", ProgressEvent JSON
// data), terminated by one "done" event carrying the job's final view.
// Jobs without metrics sampling (MetricsEvery 0 and no server
// -progress-every default) emit only the final event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, done, cancel, ok := s.Subscribe(id)
	if !ok {
		http.Error(w, "service: unknown job "+id, http.StatusNotFound)
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if canFlush {
			fl.Flush()
		}
	}
	flush()

	emit := func(event string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
		flush()
		return true
	}
live:
	for {
		select {
		case ev, open := <-ch:
			if !open {
				break live
			}
			if !emit("sample", ev) {
				return // client hung up
			}
		case <-done:
			break live
		case <-r.Context().Done():
			return
		}
	}
	// Terminal: drain any samples buffered before the close, then report
	// the final state and end the stream.
	for drained := false; !drained; {
		select {
		case ev, open := <-ch:
			if !open {
				drained = true
			} else if !emit("sample", ev) {
				return
			}
		default:
			drained = true
		}
	}
	if v, found := s.Job(id, false); found {
		emit("done", v)
	}
}

// handleTrace is GET /jobs/{id}/trace: the job's merged lifecycle +
// simulation trace as Chrome-trace JSON (load at ui.perfetto.dev).
// Works on live jobs too — open spans close at the request instant.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	b, ok := s.Trace(r.PathValue("id"))
	if !ok {
		http.Error(w, "service: unknown job "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck // client gone mid-body; nothing to do
}

// handleFlightRec is GET /debug/flightrec: a snapshot of the crash
// flight recorder as newline-delimited JSON, oldest event first, led by
// one header line stating the snapshot time and displaced-event count —
// the same format the on-disk panic/watchdog/SIGTERM dumps use.
func (s *Server) handleFlightRec(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.flight.WriteJSONL(w) //nolint:errcheck // client gone mid-body; nothing to do
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.MetricsText())
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleIndex is GET /.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintf(w, `minnowd — sharded Minnow simulation service

POST   /jobs             submit a simulation job (see docs/SERVICE.md)
GET    /jobs             list jobs
GET    /jobs/{id}        job status and result (?full=1 for artifacts)
DELETE /jobs/{id}        cancel a job
GET    /jobs/{id}/stream live progress events (SSE)
GET    /jobs/{id}/trace  merged lifecycle+simulation trace (ui.perfetto.dev)
GET    /metrics          Prometheus metrics
GET    /debug/flightrec  flight-recorder snapshot (JSONL)
GET    /healthz          liveness

shards: %d  cache entries: %d
`, s.shards, s.cache.Len())
}
