package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fold3d/internal/flow"
)

// span is one timed interval recorded around a call into a layer.
type span struct {
	id, parent int
	// request groups the spans of one request (one experiment run or job).
	request    int
	name       string
	start, end time.Time
	// lane separates concurrent clients in the trace viewer.
	lane int
	args map[string]any
}

// recorder holds spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay only a nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reserve returns a fresh span id, so children recorded before their
// parent ends can name it.
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span and returns its id (0 on a nil recorder); a
// span without an id gets a fresh one.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	if s.id == 0 {
		s.id = r.reserve()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return s.id
}

// timed runs fn inside a span named name and returns fn's duration.
func (r *recorder) timed(name string, args map[string]any, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(span{name: name, start: start, end: end, args: args})
	return end.Sub(start), err
}

// chipSpans turns the flow.Progress events of one request's chip builds
// into contiguous flow.* spans. The time between two events is charged to
// the stage of the later one, so flow.fold covers everything from the end
// of the previous build (or the request start) to the last fold event: exp
// generates each style's design just before building it, and no public
// event separates the two. Aggregation (the "done" event) and the time
// after the last build are left to the uncovered remainder.
type chipSpans struct {
	rec             *recorder
	parent, request int
	start, end      time.Time
	last            time.Time
	// open is the stage whose span is growing, and since its start.
	open  string
	since time.Time
	// total sums event-to-event time per stage over the request.
	total map[string]time.Duration
}

// flowStages are the stages reported as flow.* metrics, in build order.
var flowStages = []string{flow.StageFold, flow.StageFloorplan, flow.StageImplement, flow.StageChipNets}

// newChipSpans starts tracking a request that started at start.
func newChipSpans(rec *recorder, parent, request int, start time.Time) *chipSpans {
	return &chipSpans{rec: rec, parent: parent, request: request, start: start, last: start,
		total: map[string]time.Duration{}}
}

// observe is the flow.Progress hook; the flow serializes its calls.
func (c *chipSpans) observe(p flow.Progress) {
	now := time.Now()
	if p.Stage != c.open {
		c.closeOpen()
		c.open, c.since = p.Stage, c.last
	}
	c.total[p.Stage] += now.Sub(c.last)
	c.last = now
}

// closeOpen records the open span, ending at the last event.
func (c *chipSpans) closeOpen() {
	if c.open == "" {
		return
	}
	name := "flow." + c.open
	if c.open == flow.StageDone {
		name = "flow.aggregate"
	}
	c.rec.add(span{parent: c.parent, request: c.request, name: name, start: c.since, end: c.last})
	c.open = ""
}

// finish ends the request at end.
func (c *chipSpans) finish(end time.Time) {
	c.closeOpen()
	c.end = end
}

// wall is the request's duration; covered is the part inside flow.* spans.
func (c *chipSpans) wall() time.Duration { return c.end.Sub(c.start) }

func (c *chipSpans) covered() time.Duration {
	var d time.Duration
	for _, st := range flowStages {
		d += c.total[st]
	}
	return d
}

// traceEvent is one Chrome trace-event ("X" complete event, times in µs).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the recorded spans as Chrome trace-event JSON to
// outDir/trace-<workload>-seed<N>.json (open it in Perfetto or
// chrome://tracing). Each event's args carry its span id, parent id and
// request id, so two traces can be matched span by span.
func writeTrace(r *recorder, name string, seed uint64, env map[string]string) error {
	if r == nil {
		return nil
	}
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "request": s.request}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: "fold3dbench", Ph: "X",
			Ts:  micros(s.start.Sub(r.t0)),
			Dur: micros(s.end.Sub(s.start)),
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": name, "seed": seed, "env": env},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d spans)\n", path, len(events))
	return nil
}
