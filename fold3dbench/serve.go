package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"time"

	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
	"fold3d/internal/pool"
	"fold3d/internal/server"
	"fold3d/internal/t2"
)

// daemon is fold3dd in process: a jobs.Manager behind server.Server on a
// loopback listener.
type daemon struct {
	mgr  *jobs.Manager
	srv  *httptest.Server
	base string
}

func startDaemon(cache *pipeline.Cache) *daemon {
	mgr := jobs.NewManager(jobs.Options{Workers: 2, Cache: cache})
	srv := httptest.NewServer(server.New(mgr))
	return &daemon{mgr: mgr, srv: srv, base: srv.URL}
}

// stop closes the listener, waits for open requests, then drains and
// stops the manager.
func (d *daemon) stop() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.mgr.Close(ctx)
}

// client is one closed-loop HTTP client with a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobTiming is one job as its client saw it.
type jobTiming struct {
	id string
	// post, accepted, running and done are when the POST was sent, its 202
	// read, and the running and done events read from the stream.
	post, accepted, running, done time.Time
	fingerprint                   string
	// truncated marks a stream that ended before its terminal event.
	truncated bool
}

func (j jobTiming) latency() time.Duration { return j.done.Sub(j.post) }

// run submits req, follows the job's NDJSON event stream to its terminal
// event and returns the timing. A job ending other than done is an error.
func (c *client) run(ctx context.Context, req jobs.Request) (jobTiming, error) {
	var jt jobTiming
	body, err := json.Marshal(req)
	if err != nil {
		return jt, err
	}
	jt.post = time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return jt, err
	}
	var info jobs.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	// Drain so the connection is reused; a read error here is the decode's.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if err != nil {
		return jt, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	jt.accepted, jt.id = time.Now(), info.ID

	hreq, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		return jt, err
	}
	resp, err = c.hc.Do(hreq)
	if err != nil {
		return jt, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("GET events %s: status %d", info.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return jt, fmt.Errorf("event stream %s: %w", info.ID, err)
		}
		if ev.Kind != "state" {
			continue
		}
		switch {
		case ev.State == jobs.StateRunning:
			jt.running = time.Now()
		case ev.State == jobs.StateDone:
			jt.done, jt.fingerprint = time.Now(), ev.Fingerprint
			_, _ = io.Copy(io.Discard, resp.Body)
			return jt, nil
		case ev.State.Terminal():
			return jt, fmt.Errorf("job %s ended %s: %s", info.ID, ev.State, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return jt, err
	}
	// The server can end a stream as the job turns terminal but before the
	// terminal event is recorded. Settle it from the job status, as the
	// public client's Wait does, and count it.
	st, err := c.info(ctx, info.ID)
	if err != nil {
		return jt, err
	}
	if st.State != jobs.StateDone || st.Result == nil {
		return jt, fmt.Errorf("event stream %s ended before a terminal event; job is %s: %s", info.ID, st.State, st.Error)
	}
	jt.done, jt.fingerprint, jt.truncated = time.Now(), st.Result.Fingerprint, true
	if jt.running.IsZero() {
		jt.running = jt.done
	}
	return jt, nil
}

// info fetches a finished job's status, including its result.
func (c *client) info(ctx context.Context, id string) (jobs.Info, error) {
	var info jobs.Info
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return info, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return info, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// Serve-warm traffic: small single-block experiments at scale 1000, one
// flow worker per job, seeds from a pool the set-up warms. The mix folds
// the L2D bank, the SPC core and the L2B and CCX blocks. Every job restores
// its block implementations from the cache; generation, folding, cache-key
// hashing, restores and serving run each time. README.md says why figures
// 2, 6 and 7 and never-seen seeds are left out: the legalizer fails on a
// small share of seeds, and a benchmark workload must not fail.
var serveMix = []string{"table4", "fig3", "criteria"}

const (
	serveScale   = 1000
	servePool    = 8 // pool seeds per run
	serveClients = 2
	serveSetups  = 5
)

// Paper numbers the serve-warm reports are compared with: total power of
// the folded L2D against 2D (paper Table 4) and of the second-level folded
// SPC against the unfolded one (paper Figure 3).
var servePaper = map[string]float64{"table4": -5.1, "fig3": -5.1}

// foldPowerRE reads the power delta from the first FoldCompare line of a
// report.
var foldPowerRE = regexp.MustCompile(`fold \([^)]*\): footprint [^,]*, wirelength [^,]*, buffers [^,]*, power ([-+][0-9.]+)%`)

type jobKey struct {
	exp  string
	seed uint64
}

func (k jobKey) request() jobs.Request {
	return jobs.Request{Experiments: []string{k.exp}, Scale: serveScale, Seed: k.seed, Workers: 1}
}

// serveSeeds derives the pool from the run seed; the pools of different
// run seeds never overlap.
func serveSeeds(seed uint64) []uint64 {
	pool := make([]uint64, servePool)
	for k := range pool {
		pool[k] = seed*1000 + uint64(k)
	}
	return pool
}

// warm runs every pool job once on two clients and returns each job's
// fingerprint and the mean paper gap of the reports that carry one.
func warm(ctx context.Context, d *daemon, seeds []uint64) (map[jobKey]string, float64, error) {
	var keys []jobKey
	for _, s := range seeds {
		for _, e := range serveMix {
			keys = append(keys, jobKey{e, s})
		}
	}
	fps := make([]string, len(keys))
	gaps := make([]float64, len(keys))
	hasGap := make([]bool, len(keys))
	err := pool.Run(ctx, serveClients, serveClients, func(ctx context.Context, c int) error {
		cl := newClient(d.base)
		defer cl.close()
		for i := c; i < len(keys); i += serveClients {
			jt, err := cl.run(ctx, keys[i].request())
			if err != nil {
				return err
			}
			fps[i] = jt.fingerprint
			paper, ok := servePaper[keys[i].exp]
			if !ok {
				continue
			}
			info, err := cl.info(ctx, jt.id)
			if err != nil {
				return err
			}
			if info.Result == nil || len(info.Result.Experiments) != 1 {
				return fmt.Errorf("job %s: no result", jt.id)
			}
			m := foldPowerRE.FindStringSubmatch(info.Result.Experiments[0].Report)
			if m == nil {
				return fmt.Errorf("job %s: no power delta in the %s report", jt.id, keys[i].exp)
			}
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return err
			}
			gaps[i], hasGap[i] = abs(v-paper), true
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := make(map[jobKey]string, len(keys))
	var gapSum float64
	var gapN int
	for i, k := range keys {
		out[k] = fps[i]
		if hasGap[i] {
			gapSum += gaps[i]
			gapN++
		}
	}
	return out, gapSum / float64(gapN), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// digestPool hashes the pool fingerprints in key order: the run's golden
// fingerprint.
func digestPool(fps map[jobKey]string) string {
	keys := make([]jobKey, 0, len(fps))
	for k := range fps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].exp < keys[j].exp
	})
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s %d %s", k.exp, k.seed, fps[k])
	}
	return digest(lines)
}

// servedJob is one timed-window job and how it ended.
type servedJob struct {
	key    jobKey
	timing jobTiming
	err    error
	client int
	traced bool
}

func runServeWarm(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	if opt.trace {
		out.spans = newRecorder()
	}
	seeds := serveSeeds(opt.seed)

	// Set up several times and keep the last daemon: each set-up starts a
	// daemon on a fresh cache and warms every pool job into it.
	var setups []float64
	var d *daemon
	var ref map[jobKey]string
	var gap float64
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		d = startDaemon(pipeline.NewCache(pipeline.CacheOptions{}))
		fps, g, err := warm(ctx, d, seeds)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warming the cache: %w", err), d.stop())
		}
		setups = append(setups, seconds(time.Since(start)))
		out.attempted += len(fps)
		if ref == nil {
			ref, gap = fps, g
			continue
		}
		for k, fp := range fps {
			if fp != ref[k] {
				out.fail("set-up %d: %s seed %d fingerprint %s, first set-up %s", i+1, k.exp, k.seed, fp, ref[k])
			}
		}
	}
	out.fingerprint = digestPool(ref)

	// The timed window: closed-loop clients, each sending its next job as
	// soon as the previous one reaches a terminal event.
	cache0, heap0 := d.mgr.CacheStats(), readHeap()
	perClient := make([][]servedJob, serveClients)
	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	err := pool.Run(ctx, serveClients, serveClients, func(ctx context.Context, c int) error {
		cl := newClient(d.base)
		defer cl.close()
		r := rand.New(rand.NewPCG(opt.seed, uint64(c)))
		for j := 0; time.Since(start) < window; j++ {
			sj := servedJob{client: c, traced: opt.trace && j%2 == 0}
			sj.key = jobKey{serveMix[(j+c)%len(serveMix)], seeds[r.IntN(len(seeds))]}
			sj.timing, sj.err = cl.run(ctx, sj.key.request())
			perClient[c] = append(perClient[c], sj)
		}
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	elapsed := time.Since(start)
	cacheDelta, heapDelta := statsSince(d.mgr.CacheStats(), cache0), readHeap().since(heap0)
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Check every served job against the fingerprint its set-up saw.
	var lat, tracedLat, untracedLat, submit, queue, runT []float64
	truncated := 0
	for _, sj := range slices.Concat(perClient...) {
		out.attempted++
		if sj.err != nil {
			out.fail("%s seed %d: %v", sj.key.exp, sj.key.seed, sj.err)
			continue
		}
		if want := ref[sj.key]; sj.timing.fingerprint != want {
			out.fail("%s seed %d: fingerprint %s, set-up saw %s", sj.key.exp, sj.key.seed, sj.timing.fingerprint, want)
			continue
		}
		if sj.timing.truncated {
			truncated++
		}
		l := millis(sj.timing.latency())
		lat = append(lat, l)
		if sj.traced {
			tracedLat = append(tracedLat, l)
			t := sj.timing
			submit = append(submit, millis(t.accepted.Sub(t.post)))
			queue = append(queue, millis(t.running.Sub(t.accepted)))
			runT = append(runT, millis(t.done.Sub(t.running)))
			jobSpans(out.spans, sj)
		} else {
			untracedLat = append(untracedLat, l)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed in the timed window")
	}
	if truncated > 0 {
		fmt.Printf("note: %d event streams ended before their terminal event; settled from job status\n", truncated)
	}

	if !opt.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		e := out.endToEnd
		e.set("setup_s", median(setups), "s")
		e.set("wall_s", median(lat)/1e3, "s")
		e.set("jobs_per_s", float64(len(lat))/seconds(elapsed), "1/s")
		e.set("latency_p50_ms", median(lat), "ms")
		e.set("latency_p95_ms", percentile(lat, 95), "ms")
		e.set("peak_rss_mb", rss, "MB")
		e.set("paper_gap_pts", gap, "points")
		fmt.Printf("samples: %d jobs in %.1f s (%d beyond p95)\n", len(lat), seconds(elapsed), len(lat)-int(0.95*float64(len(lat))))
		return out, nil
	}

	pl := out.perLayer
	n := float64(len(lat))
	perRequestCache(pl, cacheDelta, n)
	pl.set("runtime.alloc_mb", float64(heapDelta.allocBytes)/(1<<20)/n, "MB")
	pl.set("runtime.gc_cycles", float64(heapDelta.gcCycles)/n, "count")
	pl.set("server.submit_ms", median(submit), "ms")
	pl.set("jobs.queue_wait_ms", median(queue), "ms")
	pl.set("jobs.run_ms", median(runT), "ms")
	pl.set("trace.overhead_s", (median(tracedLat)-median(untracedLat))/1e3, "s")

	// The job mix builds no chip, so the flow.* spans and the engine probes
	// come from one folded-F2F chip of the first pool design.
	pc := probeChip{scale: serveScale, seed: seeds[0], style: t2.StyleFoldF2F,
		cache: pipeline.NewCache(pipeline.CacheOptions{}), flowSpans: true}
	cs, err := runProbes(ctx, pc, out.spans, pl)
	if err != nil {
		return nil, err
	}
	setFlowMetrics(pl, []*chipSpans{cs})
	return out, nil
}

// jobSpans records one traced job's client-side spans: the job itself and
// its submit, queue-wait and run phases.
func jobSpans(rec *recorder, sj servedJob) {
	t := sj.timing
	id := rec.reserve()
	args := map[string]any{"job": t.id, "experiment": sj.key.exp, "seed": sj.key.seed}
	rec.add(span{id: id, request: id, name: "job", start: t.post, end: t.done, lane: sj.client + 1, args: args})
	rec.add(span{parent: id, request: id, name: "server.submit", start: t.post, end: t.accepted, lane: sj.client + 1})
	rec.add(span{parent: id, request: id, name: "jobs.queue_wait", start: t.accepted, end: t.running, lane: sj.client + 1})
	rec.add(span{parent: id, request: id, name: "jobs.run", start: t.running, end: t.done, lane: sj.client + 1})
}
