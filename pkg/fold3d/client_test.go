package fold3d

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newClientFixture boots a real manager + handler behind httptest and
// returns a client against it. wrap, when non-nil, interposes on the
// handler (used to inject disconnects).
func newClientFixture(t *testing.T, opts JobManagerOptions, wrap func(http.Handler) http.Handler) (*Client, *JobManager) {
	t.Helper()
	mgr := NewJobManager(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	var h http.Handler = NewJobHandler(mgr)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), mgr
}

func TestClientSubmitAndWait(t *testing.T) {
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 1, QueueDepth: 4}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, JobRequest{Experiments: []string{"table4"}})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.State != JobQueued && info.State != JobRunning {
		t.Fatalf("accepted snapshot = %+v", info)
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Result == nil || final.Result.Fingerprint == "" {
		t.Fatalf("final = %+v, want done with a result fingerprint", final)
	}
	// The listing surfaces the job too.
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != info.ID {
		t.Fatalf("Jobs() = %+v", all)
	}
}

// TestClientThermalJob pins the "will it melt" serving path end-to-end: a
// thermal job round-trips through the JSON API, its report carries the
// melt verdict, and an impossible budget is a 400 before any work starts.
func TestClientThermalJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 1, QueueDepth: 4}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	_, err := c.Submit(ctx, JobRequest{Experiments: []string{"thermal"},
		Thermal: &JobThermalSpec{TMaxC: -40}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("impossible budget: err = %v, want ErrBadRequest", err)
	}

	info, err := c.Submit(ctx, JobRequest{Experiments: []string{"thermal"},
		Thermal: &JobThermalSpec{TMaxC: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Request.Thermal == nil || info.Request.Thermal.TMaxC != 60 {
		t.Fatalf("thermal spec lost in normalization: %+v", info.Request)
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("final = %+v, want done", final)
	}
	report := final.Result.Experiments[0].Report
	if !strings.Contains(report, "MELTS") {
		t.Errorf("60 C budget produced no melt verdict in the report:\n%s", report)
	}
}

// TestClientErrorMapping pins the envelope decode and sentinel unwrap:
// errors.Is works across the HTTP boundary and APIError carries the
// machine-readable pieces.
func TestClientErrorMapping(t *testing.T) {
	c, mgr := newClientFixture(t, JobManagerOptions{Workers: 1, QueueDepth: 4}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	_, err := c.Submit(ctx, JobRequest{Experiments: []string{"ghost"}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad experiment: err = %v, want ErrBadRequest", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
		t.Fatalf("APIError = %+v", apiErr)
	}

	if _, err := c.Job(ctx, "job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: err = %v, want ErrUnknownJob", err)
	}
	if _, err := c.Batch(ctx, "batch-999999"); !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Fatalf("unknown batch: err = %v, want not_found envelope", err)
	}

	// A draining daemon answers 503 shutdown with a Retry-After hint.
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer closeCancel()
	if err := mgr.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, JobRequest{Experiments: []string{"table4"}})
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown submit: err = %v, want ErrShutdown", err)
	}
	if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
		t.Fatalf("shutdown rejection lost its Retry-After hint: %+v", apiErr)
	}
}

// abortingHandler interposes on the first event-stream request: it lets
// exactly one NDJSON line through, then kills the connection, simulating
// a daemon restart / LB idle-timeout mid-stream.
type abortingHandler struct {
	inner    http.Handler
	tripped  atomic.Bool
	attempts atomic.Int64
}

func (a *abortingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && len(r.URL.Path) > 7 && r.URL.Path[len(r.URL.Path)-7:] == "/events" {
		a.attempts.Add(1)
		if a.tripped.CompareAndSwap(false, true) {
			a.inner.ServeHTTP(&abortAfterOneLine{ResponseWriter: w}, r)
			return
		}
	}
	a.inner.ServeHTTP(w, r)
}

// abortAfterOneLine delivers the first Write (one NDJSON event), then
// aborts the connection on the next.
type abortAfterOneLine struct {
	http.ResponseWriter
	wrote bool
}

func (w *abortAfterOneLine) Write(p []byte) (int, error) {
	if w.wrote {
		panic(http.ErrAbortHandler)
	}
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *abortAfterOneLine) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClientStreamResume is the forced-disconnect test: the server drops
// the first stream after one event; the client must reconnect with ?from=
// and deliver every event exactly once, in order.
func TestClientStreamResume(t *testing.T) {
	ah := &abortingHandler{}
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 1, QueueDepth: 4}, func(h http.Handler) http.Handler {
		ah.inner = h
		return ah
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, JobRequest{Experiments: []string{"table4"}})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	if err := c.StreamEvents(ctx, info.ID, 0, func(ev JobEvent) error {
		seqs = append(seqs, ev.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ah.attempts.Load(); got < 2 {
		t.Fatalf("stream used %d connections; the forced disconnect never exercised resume", got)
	}
	if len(seqs) < 3 {
		t.Fatalf("only %d events delivered: %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("events not exactly-once/in-order across the disconnect: %v", seqs)
		}
	}
	// And the job really is terminal (the stream didn't bail early).
	final, err := c.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Terminal() {
		t.Fatalf("stream returned before terminal state: %s", final.State)
	}
}

// TestClientStreamEndsWithTerminalEvent follows every job of a burst
// while the jobs finish concurrently: for each, fn must receive the whole
// dense stream and its last event must be the terminal state event.
func TestClientStreamEndsWithTerminalEvent(t *testing.T) {
	const n = 24
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 4, QueueDepth: n}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ids := make([]string, n)
	for i := range ids {
		info, err := c.Submit(ctx, JobRequest{Experiments: []string{"table4"}, Seed: uint64(i%3) + 1})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var events []JobEvent
			if err := c.StreamEvents(ctx, id, 0, func(ev JobEvent) error {
				events = append(events, ev)
				return nil
			}); err != nil {
				errc <- err
				return
			}
			for i, ev := range events {
				if ev.Seq != i {
					errc <- fmt.Errorf("job %s: event %d has seq %d", id, i, ev.Seq)
					return
				}
			}
			if last := events[len(events)-1]; last.Kind != "state" || last.State != JobDone {
				errc <- fmt.Errorf("job %s: stream ended with %+v, want the done event", id, last)
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestClientStreamConsumerStop pins that a consumer error stops the
// stream and is returned verbatim (no retry storm).
func TestClientStreamConsumerStop(t *testing.T) {
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 1, QueueDepth: 4}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, JobRequest{Experiments: []string{"table4"}})
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("boom")
	if err := c.StreamEvents(ctx, info.ID, 0, func(JobEvent) error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the consumer's own error", err)
	}
}

// TestClientBatch runs a batch end to end through the client: atomic
// submit, multiplexed stream with dense sequence, distinct member
// results.
func TestClientBatch(t *testing.T) {
	c, _ := newClientFixture(t, JobManagerOptions{Workers: 2, QueueDepth: 8}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	accepted, err := c.SubmitBatch(ctx, []JobRequest{
		{Experiments: []string{"table4"}},
		{Experiments: []string{"table4"}, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if accepted.ID == "" || len(accepted.Jobs) != 2 {
		t.Fatalf("accepted batch = %+v", accepted)
	}
	var events []BatchEvent
	if err := c.StreamBatchEvents(ctx, accepted.ID, 0, func(ev BatchEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("batch stream sequence not dense at %d: %+v", i, ev)
		}
		if ev.Job == "" {
			t.Fatalf("batch event %d lost its job tag", i)
		}
	}
	final, err := c.Batch(ctx, accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("batch state = %s, want done", final.State)
	}
	if final.Jobs[0].Result.Fingerprint == final.Jobs[1].Result.Fingerprint {
		t.Fatal("different seeds produced identical member fingerprints")
	}
}
