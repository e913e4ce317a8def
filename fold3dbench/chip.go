package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"fold3d/internal/exp"
	"fold3d/internal/flow"
	"fold3d/internal/jobs"
	"fold3d/internal/pipeline"
	"fold3d/internal/t2"
)

// expWorkload is a workload whose request is one call of an experiment
// generator on a fresh artifact cache, as a first `fold3d -exp` run does.
type expWorkload struct {
	// name is the experiment's registry name, for the serving probe.
	name    string
	scale   float64
	placer  string
	thermal flow.ThermalConfig
	// useHVT and probeStyle pick the probe chip: a style the experiment
	// builds, with the experiment's flow settings, so it restores from the
	// run's cache.
	useHVT     bool
	probeStyle t2.Style
	// run calls the experiment and returns its report text and the mean
	// absolute gap, in percentage points, between the power deltas it
	// reports and the paper's.
	run func(ctx context.Context, cfg exp.Config) (report string, gapPts float64, err error)
}

// expSetups is how many times a run sets up; setup_s is the median.
const expSetups = 5

// expDesigns is how many designs a run cycles through. Each is built at
// least once, so the run's report fingerprint and paper gap cover the same
// designs every time, and no single design's quirks set the run's numbers.
const expDesigns = 5

// designSeeds derives a run's design seeds from its seed; the ranges of
// different run seeds never overlap.
func designSeeds(seed uint64) []uint64 {
	out := make([]uint64, expDesigns)
	for k := range out {
		out[k] = seed*1000 + uint64(k)
	}
	return out
}

func (w *expWorkload) config(seed uint64) exp.Config {
	return exp.Config{Scale: w.scale, Seed: seed, Workers: 2, Placer: w.placer, Thermal: w.thermal}
}

// chipS100 is paper Table 5 (2D vs unfolded 3D vs folded F2F, dual-Vth) at
// ~70.9k cells.
var chipS100 = expWorkload{
	name: "table5", scale: 100, useHVT: true, probeStyle: t2.StyleFoldF2F,
	run: func(ctx context.Context, cfg exp.Config) (string, float64, error) {
		t, err := exp.Table5(ctx, cfg)
		if err != nil {
			return "", 0, err
		}
		// Paper Table 5: total power -13.7% without and -20.3% with folding.
		unfolded, ok1 := t.Diff("total power", 1)
		folded, ok2 := t.Diff("total power", 2)
		if !ok1 || !ok2 {
			return "", 0, fmt.Errorf("table5 has no total power row")
		}
		return t.String(), (abs(unfolded+13.7) + abs(folded+20.3)) / 2, nil
	},
}

// thermalAnalytical is the thermal study across all five styles with
// in-loop thermal planning and the analytical placer.
var thermalAnalytical = expWorkload{
	name: "thermal", scale: 300, placer: "analytical", thermal: flow.ThermalConfig{Enable: true},
	probeStyle: t2.StyleFoldF2B,
	run: func(ctx context.Context, cfg exp.Config) (string, float64, error) {
		r, err := exp.ThermalStudy(ctx, cfg)
		if err != nil {
			return "", 0, err
		}
		// The study's 2D, core/cache and core/core chips are paper Table 2's
		// RVT designs: total power -10.3% and -9.1% against 2D.
		powerW := map[t2.Style]float64{}
		for _, row := range r.Rows {
			powerW[row.Style] = row.PowerW
		}
		base := powerW[t2.Style2D]
		if !(base > 0) {
			return "", 0, fmt.Errorf("thermal study has no 2D power")
		}
		cc := 100 * (powerW[t2.StyleCoreCache]/base - 1)
		co := 100 * (powerW[t2.StyleCoreCore]/base - 1)
		return r.String(), (abs(cc+10.3) + abs(co+9.1)) / 2, nil
	},
}

func runChipS100(ctx context.Context, opt options) (*outcome, error) {
	return chipS100.measure(ctx, opt)
}

func runThermalAnalytical(ctx context.Context, opt options) (*outcome, error) {
	return thermalAnalytical.measure(ctx, opt)
}

// measure sets up, runs requests back to back for the timed window, cycling
// through the run's designs, checks every report against the design's first
// (and the run's digest against the golden fingerprint in main), and fills
// the end-to-end metrics, or in a traced run the per-layer ones. Traced runs
// alternate traced and untraced requests, so the tracing overhead is
// measured inside one process.
func (w *expWorkload) measure(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	if opt.trace {
		out.spans = newRecorder()
	}
	designs := designSeeds(opt.seed)

	// Set-up: validate the configuration and generate a design, as a caller
	// does before committing to a run.
	var setups []float64
	for i := 0; i < expSetups; i++ {
		start := time.Now()
		if err := w.config(designs[0]).Validate(); err != nil {
			return nil, err
		}
		if _, err := t2.Generate(t2.Config{Scale: w.scale, Seed: designs[0]}); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
	}

	fps := make([]string, len(designs))
	gaps := make([]float64, len(designs))
	var walls, overheads []float64
	var traced []*chipSpans
	var cacheTotal pipeline.Stats
	var last struct {
		cache *pipeline.Cache
		k     int
	}
	// An untraced run builds each design once before the window may close.
	// A traced run builds each design twice in a row, untraced then traced,
	// so the tracing overhead compares like with like.
	minRequests, designOf := len(designs), func(i int) int { return i % len(designs) }
	if opt.trace {
		minRequests, designOf = 2*len(designs), func(i int) int { return i / 2 % len(designs) }
	}
	prevWall := math.NaN()
	heap0 := readHeap()
	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minRequests || time.Since(start) < window; i++ {
		// Every request starts from a collected heap, so one request's
		// garbage does not land in the next one's time or peak RSS.
		runtime.GC()
		k := designOf(i)
		rcfg := w.config(designs[k])
		rcfg.Cache = pipeline.NewCache(pipeline.CacheOptions{MaxBytes: exp.DefaultCacheBudget})
		reqStart := time.Now()
		var cs *chipSpans
		if opt.trace && i%2 == 1 {
			id := out.spans.reserve()
			cs = newChipSpans(out.spans, id, id, reqStart)
			rcfg.Progress = cs.observe
		}
		report, g, err := w.run(ctx, rcfg)
		reqEnd := time.Now()
		wall := seconds(reqEnd.Sub(reqStart))
		out.attempted++
		if err != nil {
			out.fail("request %d (seed %d): %v", i+1, designs[k], err)
			prevWall = math.NaN()
			continue
		}
		fp := hashReport(report)
		switch {
		case fps[k] == "":
			fps[k], gaps[k] = fp, g
		case fp != fps[k]:
			out.fail("request %d (seed %d): report fingerprint %s, first build %s", i+1, designs[k], fp, fps[k])
			prevWall = math.NaN()
			continue
		}
		walls = append(walls, wall)
		cacheTotal = addStats(cacheTotal, rcfg.Cache.Stats())
		last.cache, last.k = rcfg.Cache, k
		if cs != nil {
			cs.finish(reqEnd)
			out.spans.add(span{id: cs.parent, request: cs.request, name: "request", start: reqStart, end: reqEnd,
				args: map[string]any{"experiment": w.name, "seed": designs[k]}})
			traced = append(traced, cs)
			if !math.IsNaN(prevWall) {
				overheads = append(overheads, wall-prevWall)
			}
		}
		prevWall = wall
	}
	heapDelta := readHeap().since(heap0)
	out.fingerprint = digest(fps)
	if len(walls) == 0 {
		return out, nil
	}

	if !opt.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		e := out.endToEnd
		e.set("setup_s", median(setups), "s")
		e.set("wall_s", median(walls), "s")
		e.set("jobs_per_s", float64(len(walls))/sum(walls), "1/s")
		e.set("latency_p50_ms", 1e3*median(walls), "ms")
		e.set("latency_p95_ms", 1e3*percentile(walls, 95), "ms")
		e.set("peak_rss_mb", rss, "MB")
		e.set("paper_gap_pts", sum(gaps)/float64(len(gaps)), "points")
		fmt.Printf("samples: %d requests over %d designs, %.1f s busy\n", len(walls), len(designs), sum(walls))
		return out, nil
	}

	pl := out.perLayer
	n := float64(len(walls))
	perRequestCache(pl, cacheTotal, n)
	pl.set("runtime.alloc_mb", float64(heapDelta.allocBytes)/(1<<20)/n, "MB")
	pl.set("runtime.gc_cycles", float64(heapDelta.gcCycles)/n, "count")
	pl.set("trace.overhead_s", median(overheads), "s")
	setFlowMetrics(pl, traced)

	// Probe and serve the last request's design: its artifacts are in the
	// last request's cache.
	seed := designs[last.k]
	pc := probeChip{scale: w.scale, seed: seed, placer: w.placer, thermal: w.thermal,
		useHVT: w.useHVT, style: w.probeStyle, cache: last.cache}
	if _, err := runProbes(ctx, pc, out.spans, pl); err != nil {
		return nil, err
	}
	return out, w.serveProbe(ctx, seed, fps[last.k], last.cache, out)
}

// serveProbe sends the workload's own experiment to an in-process fold3dd
// sharing the run's warm cache, three times, and times the serving layers
// from the client. Each served report must match the direct call's.
func (w *expWorkload) serveProbe(ctx context.Context, seed uint64, fp string, cache *pipeline.Cache, out *outcome) error {
	d := startDaemon(cache)
	cl := newClient(d.base)
	req := jobs.Request{Experiments: []string{w.name}, Scale: w.scale, Seed: seed, Placer: w.placer, Workers: 2}
	if w.thermal.Enable {
		req.Thermal = &jobs.ThermalSpec{}
	}
	var submit, queue, run []float64
	for i := 0; i < 3; i++ {
		out.attempted++
		jt, err := cl.run(ctx, req)
		if err != nil {
			out.fail("serving %s: %v", w.name, err)
			continue
		}
		info, err := cl.info(ctx, jt.id)
		if err != nil {
			out.fail("serving %s: %v", w.name, err)
			continue
		}
		if info.Result == nil || len(info.Result.Experiments) != 1 ||
			hashReport(info.Result.Experiments[0].Report) != fp {
			out.fail("served %s report differs from the direct call's", w.name)
			continue
		}
		jobSpans(out.spans, servedJob{key: jobKey{w.name, seed}, timing: jt})
		submit = append(submit, millis(jt.accepted.Sub(jt.post)))
		queue = append(queue, millis(jt.running.Sub(jt.accepted)))
		run = append(run, millis(jt.done.Sub(jt.running)))
	}
	cl.close()
	if err := d.stop(); err != nil {
		return err
	}
	if len(run) == 0 {
		return fmt.Errorf("no served %s job completed", w.name)
	}
	out.perLayer.set("server.submit_ms", median(submit), "ms")
	out.perLayer.set("jobs.queue_wait_ms", median(queue), "ms")
	out.perLayer.set("jobs.run_ms", median(run), "ms")
	return nil
}

// hashReport is the fingerprint of an experiment's report text.
func hashReport(report string) string {
	h := sha256.Sum256([]byte(report))
	return hex.EncodeToString(h[:])
}

// digest hashes lines in order: a run's fingerprint over its outputs.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func addStats(a, b pipeline.Stats) pipeline.Stats {
	a.Hits += b.Hits
	a.DiskHits += b.DiskHits
	a.PeerHits += b.PeerHits
	a.Misses += b.Misses
	a.Stores += b.Stores
	a.Evicted += b.Evicted
	return a
}

func statsSince(now, before pipeline.Stats) pipeline.Stats {
	now.Hits -= before.Hits
	now.DiskHits -= before.DiskHits
	now.PeerHits -= before.PeerHits
	now.Misses -= before.Misses
	now.Stores -= before.Stores
	now.Evicted -= before.Evicted
	return now
}

// perRequestCache reports cache counters over the timed window, per
// completed request.
func perRequestCache(pl metrics, s pipeline.Stats, n float64) {
	pl.set("pipeline.hits", float64(s.Hits)/n, "count")
	pl.set("pipeline.misses", float64(s.Misses)/n, "count")
	pl.set("pipeline.stores", float64(s.Stores)/n, "count")
	pl.set("pipeline.evicted", float64(s.Evicted)/n, "count")
	pl.set("pipeline.hit_ratio", s.HitRatio(), "ratio")
}

// setFlowMetrics reports the flow.* spans, the traced request wall time and
// the part of it no flow.* span covers, each the mean over traced requests.
// By construction the four spans plus the remainder equal the wall time.
func setFlowMetrics(pl metrics, traced []*chipSpans) {
	var wall, uncovered float64
	stage := map[string]float64{}
	for _, cs := range traced {
		for _, st := range flowStages {
			stage[st] += seconds(cs.total[st])
		}
		wall += seconds(cs.wall())
		uncovered += seconds(cs.wall() - cs.covered())
	}
	n := float64(len(traced))
	pl.set("flow.fold_s", stage[flow.StageFold]/n, "s")
	pl.set("flow.floorplan_s", stage[flow.StageFloorplan]/n, "s")
	pl.set("flow.implement_s", stage[flow.StageImplement]/n, "s")
	pl.set("flow.chip_nets_s", stage[flow.StageChipNets]/n, "s")
	pl.set("flow.uncovered_s", uncovered/n, "s")
	pl.set("flow.chip_build_s", wall/n, "s")
}
