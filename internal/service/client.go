package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client speaks the minnowd HTTP API (see Handler). Every non-2xx
// response comes back as an error wrapping a *RequestError — status
// code, plain-text body and Retry-After hint — so callers tell
// refusals apart with errors.As; retrying is the caller's policy.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a Client for the server at base, e.g.
// "http://127.0.0.1:8080". A nil hc selects http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Submit is POST /jobs. A non-empty corr is sent as X-Correlation-ID
// and must come back as the view's Corr.
func (c *Client) Submit(ctx context.Context, spec JobSpec, corr string) (JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, err
	}
	v, err := c.view(ctx, http.MethodPost, "/jobs", body, corr)
	if err == nil && corr != "" && v.Corr != corr {
		err = fmt.Errorf("POST /jobs: correlation ID %q came back as %q", corr, v.Corr)
	}
	return v, err
}

// Cancel is DELETE /jobs/{id}.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	return c.view(ctx, http.MethodDelete, "/jobs/"+id, nil, "")
}

// Get is GET /jobs/{id}; full adds the complete minnow.Result.
func (c *Client) Get(ctx context.Context, id string, full bool) (JobView, error) {
	path := "/jobs/" + id
	if full {
		path += "?full=1"
	}
	return c.view(ctx, http.MethodGet, path, nil, "")
}

// Wait follows GET /jobs/{id}/stream to its end and returns the final
// view its done event carries, handing every progress sample to
// onSample (nil ignores them). The stream must be text/event-stream
// and carry exactly one done event.
func (c *Client) Wait(ctx context.Context, id string, onSample func(ProgressEvent)) (JobView, error) {
	var v JobView
	path := "/jobs/" + id + "/stream"
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return v, fmt.Errorf("GET %s: Content-Type %q, want text/event-stream", path, ct)
	}
	dones := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		switch {
		case !ok:
		case event == "done":
			dones++
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return v, fmt.Errorf("GET %s: done payload %q: %w", path, data, err)
			}
		case event == "sample" && onSample != nil:
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return v, fmt.Errorf("GET %s: sample payload %q: %w", path, data, err)
			}
			onSample(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return v, fmt.Errorf("GET %s: %w", path, err)
	}
	if dones != 1 {
		return v, fmt.Errorf("GET %s: %d done events, want exactly 1", path, dones)
	}
	return v, nil
}

// Ready polls GET /healthz until the server answers 200 or ctx ends.
func (c *Client) Ready(ctx context.Context) error {
	for {
		resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, "")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			return resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server at %s not ready: %w", c.base, err)
		case <-time.After(time.Millisecond):
		}
	}
}

// view sends one request and decodes the JobView it answers with.
func (c *Client) view(ctx context.Context, method, path string, body []byte, corr string) (JobView, error) {
	var v JobView
	resp, err := c.do(ctx, method, path, body, corr)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return v, nil
}

// do sends one request — a non-nil body as JSON, a non-empty corr as
// X-Correlation-ID — and turns a non-2xx response into a *RequestError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, corr string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if corr != "" {
		req.Header.Set("X-Correlation-ID", corr)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	re := &RequestError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(b)), RetryAfter: ra}
	return nil, fmt.Errorf("%s %s: %d: %w", method, path, resp.StatusCode, re)
}
