package jobs

import (
	"errors"
	"fmt"

	"fold3d/internal/errs"
	"fold3d/internal/pipeline"
)

// ErrUnknownBatch reports a lookup of a batch ID the manager never issued
// (HTTP 404).
var ErrUnknownBatch = errors.New("jobs: unknown batch")

// BatchEvent is one line of a batch's multiplexed NDJSON event stream: a
// member job's event tagged with that job's ID, under a batch-wide dense
// sequence number so ?from= resume works exactly as it does per job.
type BatchEvent struct {
	// Seq is the 0-based position of the event in the batch stream.
	Seq int `json:"seq"`
	// Job is the member job the event belongs to.
	Job string `json:"job"`
	// Event is the member job's event (its Seq field is the job-local
	// sequence number, untouched by the multiplexing).
	Event Event `json:"event"`
}

// BatchInfo is a point-in-time snapshot of a batch, shaped for the status
// API.
type BatchInfo struct {
	// ID is the manager-issued batch identifier.
	ID string `json:"id"`
	// State summarizes the members: queued until any member starts,
	// running while any member is non-terminal, then failed if any member
	// failed, else canceled if any member was canceled, else done.
	State State `json:"state"`
	// Jobs snapshots every member in submission order.
	Jobs []Info `json:"jobs"`
}

// withSeq places the event at position seq of its log.
func (ev BatchEvent) withSeq(seq int) BatchEvent { ev.Seq = seq; return ev }

// Batch is a group of jobs admitted atomically by SubmitBatch, with one
// multiplexed event stream over every member. All methods are safe for
// concurrent use.
type Batch struct {
	id   string
	jobs []*Job

	// log.mu also guards remaining; the log turns terminal with the
	// terminal event of the last member to finish.
	log       eventLog[BatchEvent]
	remaining int // members not yet terminal
}

// ID returns the manager-issued batch identifier.
func (b *Batch) ID() string { return b.id }

// Jobs returns the member jobs in submission order.
func (b *Batch) Jobs() []*Job { return append([]*Job(nil), b.jobs...) }

// Done returns a channel closed when every member job is terminal.
func (b *Batch) Done() <-chan struct{} { return b.log.done }

// Info snapshots the batch and every member.
func (b *Batch) Info() BatchInfo {
	info := BatchInfo{ID: b.id, Jobs: make([]Info, len(b.jobs))}
	count := map[State]int{}
	for i, j := range b.jobs {
		info.Jobs[i] = j.Info()
		count[info.Jobs[i].State]++
	}
	switch {
	case count[StateQueued] == len(b.jobs):
		info.State = StateQueued
	case count[StateQueued]+count[StateRunning] > 0:
		info.State = StateRunning
	case count[StateFailed] > 0:
		info.State = StateFailed
	case count[StateCanceled] > 0:
		info.State = StateCanceled
	default:
		info.State = StateDone
	}
	return info
}

// EventsSince returns a copy of the multiplexed events from batch
// sequence number from onward, a channel closed when further events
// arrive, and whether every member has reached a terminal state. The
// contract mirrors Job.EventsSince.
func (b *Batch) EventsSince(from int) (events []BatchEvent, more <-chan struct{}, terminal bool) {
	return b.log.since(from)
}

// observe multiplexes a member job's just-recorded event into the batch
// stream (batch Seq assigned by the log) and tracks completion.
func (b *Batch) observe(job string, ev Event) {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	if ev.Kind == "state" && ev.State.Terminal() {
		b.remaining--
	}
	b.log.appendLocked(BatchEvent{Job: job, Event: ev}, b.remaining == 0)
}

// BatchFingerprint is the routing fingerprint of a whole batch: the
// pipeline hash chained over every member request's fingerprint, in
// order. The server routes a batch to one owner node so its members share
// one warm cache.
func BatchFingerprint(reqs []Request) string {
	h := pipeline.NewHasher()
	h.Int(len(reqs))
	for _, r := range reqs {
		h.Str(r.Fingerprint())
	}
	return string(h.Sum())
}

// SubmitBatch validates, registers and enqueues a group of requests
// atomically: either every member is admitted (one batch ID, members in
// request order) or none are — quota and queue-depth limits are checked
// for the whole group up front, so a batch can never be half-admitted.
// Failures map exactly as Submit's: errs.ErrBadRequest wrapping for any
// invalid member, ErrQuotaExceeded, ErrQueueFull, ErrShutdown.
func (m *Manager) SubmitBatch(reqs []Request) (*Batch, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("jobs: empty batch: %w", errs.ErrBadRequest)
	}
	_, b, err := m.admit(reqs, true)
	return b, err
}

// GetBatch returns the batch by ID, or ErrUnknownBatch.
func (m *Manager) GetBatch(id string) (*Batch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBatch, id)
	}
	return b, nil
}
