package fold3d

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx response from a fold3dd daemon, decoded from the
// unified /v1 error envelope {"error":{"code","message"}}. It unwraps to
// the matching package sentinel, so errors.Is(err, fold3d.ErrQueueFull)
// works across the HTTP boundary exactly as it does in-process.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error class ("queue_full", ...).
	Code string
	// Message is the server's human-readable error text.
	Message string
	// RetryAfter is the server's backoff hint, 0 when none was sent.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("fold3d: server error %d (%s): %s", e.Status, e.Code, e.Message)
}

// Unwrap maps the error code back to the package sentinel (not_found
// unwraps to ErrUnknownJob for job lookups and ErrUnknownBatch is matched
// by code — check Code == "not_found" when the distinction matters).
func (e *APIError) Unwrap() error {
	switch e.Code {
	case "bad_request":
		return ErrBadRequest
	case "not_found":
		return ErrUnknownJob
	case "quota_exceeded":
		return ErrQuotaExceeded
	case "queue_full":
		return ErrQueueFull
	case "shutdown":
		return ErrShutdown
	default:
		return nil
	}
}

// Client is a Go client for the fold3dd /v1 API: submission (single jobs
// and batches), status, result waiting, and NDJSON event streaming with
// automatic ?from= resume across disconnects. The zero value is not
// usable; construct with NewClient. Safe for concurrent use.
type Client struct {
	// BaseURL is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient issues the requests; nil uses http.DefaultClient. Do not
	// set a client-wide Timeout: event streams legitimately stay open for
	// the life of a job — bound calls with the context instead.
	HTTPClient *http.Client
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes the error envelope of a non-2xx response.
func apiError(resp *http.Response) error {
	e := &APIError{Status: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		e.RetryAfter = time.Duration(ra) * time.Second
	}
	var body ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil {
		e.Code = body.Error.Code
		e.Message = body.Error.Message
	} else {
		e.Message = fmt.Sprintf("undecodable error body (%v)", err)
	}
	return e
}

// doJSON issues one request and decodes a 2xx JSON body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fold3d: encoding request: %w", err)
		}
		body = strings.NewReader(string(data))
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("fold3d: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("fold3d: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("fold3d: decoding %s response: %w", path, err)
		}
	}
	return nil
}

// Submit enqueues one job and returns its accepted snapshot (the job is
// queued or already running; Wait for the result).
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobInfo, error) {
	var info JobInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", req, &info)
	return info, err
}

// SubmitBatch enqueues many job configurations atomically: either every
// member is admitted under one batch ID or none are.
func (c *Client) SubmitBatch(ctx context.Context, reqs []JobRequest) (BatchInfo, error) {
	var info BatchInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/batches", BatchRequest{Jobs: reqs}, &info)
	return info, err
}

// Job fetches one job's status snapshot.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var info JobInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// Jobs lists every job on the node in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	var infos []JobInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &infos)
	return infos, err
}

// Batch fetches one batch's status snapshot (including every member).
func (c *Client) Batch(ctx context.Context, id string) (BatchInfo, error) {
	var info BatchInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/batches/"+id, nil, &info)
	return info, err
}

// waitPoll is the terminal-state polling cadence of Wait. The event
// stream carries liveness; polling only covers stream gaps, so seconds
// are fine.
const waitPoll = 250 * time.Millisecond

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot. It follows the event stream (resuming across
// disconnects) and falls back to polling, so it survives a daemon that
// drops the connection mid-job.
func (c *Client) Wait(ctx context.Context, id string) (JobInfo, error) {
	// The stream returns when the job terminalizes or ctx ends; either
	// way the status poll below settles it. Stream errors (e.g. a 404 on
	// an unknown ID) are terminal for Wait too.
	err := c.StreamEvents(ctx, id, 0, func(JobEvent) error { return nil })
	if err != nil {
		return JobInfo{}, err
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return JobInfo{}, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return JobInfo{}, fmt.Errorf("fold3d: waiting for %s: %w", id, ctx.Err())
		case <-time.After(waitPoll):
		}
	}
}

// streamBackoff is the reconnect backoff ladder for event streams.
var streamBackoff = []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}

// StreamEvents follows a job's NDJSON event stream, calling fn for every
// event from sequence number from onward, until the job reaches a
// terminal state; the last event fn sees is the terminal state event.
// Disconnects are survived transparently: the client reconnects with
// ?from= set to the next unseen sequence number, so fn sees every event
// exactly once, in order, across any number of drops. A non-nil error
// from fn stops the stream and is returned.
func (c *Client) StreamEvents(ctx context.Context, id string, from int, fn func(JobEvent) error) error {
	return c.streamNDJSON(ctx, "/v1/jobs/"+id, from, deliver(func(ev JobEvent) int { return ev.Seq }, fn))
}

// StreamBatchEvents follows a batch's multiplexed NDJSON stream with the
// same exactly-once, resume-on-disconnect contract as StreamEvents.
func (c *Client) StreamBatchEvents(ctx context.Context, id string, from int, fn func(BatchEvent) error) error {
	return c.streamNDJSON(ctx, "/v1/batches/"+id, from, deliver(func(ev BatchEvent) int { return ev.Seq }, fn))
}

// deliver is the one decode-and-dedupe step of job and batch streams: it
// decodes a line into E, drops an event already delivered before a racy
// reconnect, hands the rest to fn, and returns the advanced cursor.
func deliver[E any](seq func(E) int, fn func(E) error) func(line []byte, cursor int) (int, error) {
	return func(line []byte, cursor int) (int, error) {
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			return cursor, fmt.Errorf("fold3d: bad event line: %w", err)
		}
		if seq(ev) < cursor {
			return cursor, nil
		}
		if err := fn(ev); err != nil {
			return cursor, err
		}
		return seq(ev) + 1, nil
	}
}

// stopError marks a consumer-requested stop (fn returned an error) so the
// resume loop can tell it apart from a dropped connection.
type stopError struct{ err error }

func (s *stopError) Error() string { return "fold3d: stream consumer stopped: " + s.err.Error() }

// streamNDJSON is the shared resume loop over the events of the job or
// batch at path: connect at the cursor, feed lines to deliver (which
// advances the cursor), and on a dropped connection decide between
// "stream complete" (the entity is terminal) and "reconnect from the
// cursor" with backoff. The daemon ends a stream cleanly only after its
// terminal event, so a clean end at a terminal entity has delivered it.
func (c *Client) streamNDJSON(ctx context.Context, path string, cursor int, deliver func(line []byte, cursor int) (int, error)) error {
	attempt := 0
	for {
		advanced, err := c.streamOnce(ctx, path+"/events", &cursor, deliver)
		if err != nil {
			var stop *stopError
			if errors.As(err, &stop) {
				return stop.err
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				return err // the server refused the stream; resuming won't help
			}
			if ctx.Err() != nil {
				return fmt.Errorf("fold3d: streaming %s: %w", path, ctx.Err())
			}
			// Transport-level drop: fall through to the resume decision.
		}
		var st struct {
			State JobState `json:"state"`
		}
		if serr := c.doJSON(ctx, http.MethodGet, path, nil, &st); serr != nil {
			return serr
		}
		if st.State.Terminal() && err == nil {
			return nil
		}
		// Mid-stream disconnect: back off and resume from the cursor.
		if advanced {
			attempt = 0
		} else if attempt < len(streamBackoff)-1 {
			attempt++
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fold3d: streaming %s: %w", path, ctx.Err())
		case <-time.After(streamBackoff[attempt]):
		}
	}
}

// streamOnce holds one connection open, delivering lines until the server
// ends the stream (clean return) or the connection breaks (error).
// advanced reports whether any event was delivered on this connection.
func (c *Client) streamOnce(ctx context.Context, path string, cursor *int, deliver func(line []byte, cursor int) (int, error)) (advanced bool, err error) {
	url := fmt.Sprintf("%s%s?from=%d", c.BaseURL, path, *cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, fmt.Errorf("fold3d: building request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return false, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		next, derr := deliver(sc.Bytes(), *cursor)
		if derr != nil {
			return advanced, &stopError{derr}
		}
		if next != *cursor {
			advanced = true
		}
		*cursor = next
	}
	return advanced, sc.Err()
}
