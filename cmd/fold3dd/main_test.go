package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"fold3d/internal/jobs"
)

// smokeClient drives one running daemon over plain HTTP.
type smokeClient struct {
	t    *testing.T
	base string
}

// do sends one request, with a JSON body when body is non-empty, and
// returns the status and response body.
func (c smokeClient) do(method, path, body string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// decode unmarshals a JSON body.
func (c smokeClient) decode(body string, v any) {
	c.t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		c.t.Fatalf("decoding %q: %v", body, err)
	}
}

// submit posts a job and requires 202.
func (c smokeClient) submit(body string) jobs.Info {
	c.t.Helper()
	code, out := c.do(http.MethodPost, "/v1/jobs", body)
	if code != http.StatusAccepted {
		c.t.Fatalf("submit %s = %d: %s", body, code, out)
	}
	var info jobs.Info
	c.decode(out, &info)
	return info
}

// waitJob polls a job to a terminal state and requires done with a
// result fingerprint.
func (c smokeClient) waitJob(id string) jobs.Info {
	c.t.Helper()
	var info jobs.Info
	deadline := time.Now().Add(60 * time.Second)
	for !info.State.Terminal() {
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s stuck in %s", id, info.State)
		}
		time.Sleep(5 * time.Millisecond)
		_, out := c.do(http.MethodGet, "/v1/jobs/"+id, "")
		c.decode(out, &info)
	}
	if info.State != jobs.StateDone || info.Result == nil || info.Result.Fingerprint == "" {
		c.t.Fatalf("job %s ended %s (%s), result %+v", id, info.State, info.Error, info.Result)
	}
	return info
}

// requireStatus posts a job body and requires the given HTTP status.
func (c smokeClient) requireStatus(body string, want int) {
	c.t.Helper()
	if code, out := c.do(http.MethodPost, "/v1/jobs", body); code != want {
		c.t.Errorf("submit %s = %d, want %d: %s", body, code, want, out)
	}
}

// requireMetrics scrapes /metrics and requires every line fragment.
func (c smokeClient) requireMetrics(want ...string) {
	c.t.Helper()
	_, metrics := c.do(http.MethodGet, "/metrics", "")
	for _, w := range want {
		if !strings.Contains(metrics, w) {
			c.t.Errorf("metrics missing %q", w)
		}
	}
}

// TestDaemonSmoke boots the real daemon on a random port and drives it
// end to end over HTTP: jobs on both placement backends, a thermal job, a
// two-member batch, the 400s for an unknown backend and an impossible
// temperature budget, /metrics, and a shutdown on a real SIGTERM.
func TestDaemonSmoke(t *testing.T) {
	addrc := make(chan string, 1)
	exitc := make(chan int, 1)
	go func() {
		exitc <- run(
			[]string{"-addr", "127.0.0.1:0", "-jobs", "2", "-cachestats", "-pprof"},
			func(addr string) { addrc <- addr },
		)
	}()

	var c smokeClient
	select {
	case addr := <-addrc:
		c = smokeClient{t: t, base: "http://" + addr}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	// Readiness.
	if code, _ := c.do(http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// -pprof was passed, so the profiling index must serve.
	if code, _ := c.do(http.MethodGet, "/debug/pprof/", ""); code != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", code)
	}

	// One small end-to-end job, then the job and cache counters moved.
	c.waitJob(c.submit(`{"experiments":["table4"]}`).ID)
	c.requireMetrics(
		`fold3dd_jobs_total{state="done"} 1`,
		"fold3dd_jobs_submitted_total 1",
		"fold3dd_cache_hit_ratio ",
	)

	// The analytical placement backend runs a job to done; an unknown
	// backend is rejected with a 400 before admission.
	c.waitJob(c.submit(`{"experiments":["table4"],"placer":"analytical"}`).ID)
	c.requireStatus(`{"experiments":["table4"],"placer":"bogus"}`, http.StatusBadRequest)

	// "Will this folding melt": the thermal experiment with a temperature
	// budget reports Tmax; an impossible budget is a 400 before admission.
	thermal := c.waitJob(c.submit(`{"experiments":["thermal"],"thermal":{"tmax_c":85,"vias":64}}`).ID)
	if len(thermal.Result.Experiments) != 1 || !strings.Contains(thermal.Result.Experiments[0].Report, "Tmax") {
		t.Errorf("thermal job result carries no Tmax report: %+v", thermal.Result.Experiments)
	}
	c.requireStatus(`{"experiments":["thermal"],"thermal":{"tmax_c":-5}}`, http.StatusBadRequest)

	// A two-member batch runs every member to done.
	code, out := c.do(http.MethodPost, "/v1/batches", `{"jobs":[{"experiments":["table4"],"seed":2},{"experiments":["table4"],"seed":3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %s", code, out)
	}
	var batch jobs.BatchInfo
	c.decode(out, &batch)
	if len(batch.Jobs) != 2 {
		t.Fatalf("batch admitted %d members, want 2", len(batch.Jobs))
	}
	for _, member := range batch.Jobs {
		c.waitJob(member.ID)
	}
	_, out = c.do(http.MethodGet, "/v1/batches/"+batch.ID, "")
	c.decode(out, &batch)
	if batch.State != jobs.StateDone {
		t.Fatalf("batch %s ended %s, want done", batch.ID, batch.State)
	}

	// /metrics counts every done job: three singles and two batch members.
	c.requireMetrics(
		`fold3dd_jobs_total{state="done"} 5`,
		"fold3dd_jobs_submitted_total 5",
	)

	// Graceful shutdown on a real signal.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitc:
		if code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestHTTPServerTimeouts pins that the daemon's listener bounds slow
// request headers and idle keep-alive connections.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
}

// TestRunBadFlags pins the usage exit code.
func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-no-such-flag"}, nil); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

// TestRunBadAddr pins the listen-failure exit code.
func TestRunBadAddr(t *testing.T) {
	if code := run([]string{"-addr", "256.0.0.1:bad"}, nil); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
}
