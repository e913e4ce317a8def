package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fold3d/internal/errs"
)

// smallReq returns the cheapest valid request, optionally owned by a
// tenant.
func smallReq(tenant string) Request {
	return Request{Experiments: []string{"table4"}, Tenant: tenant}
}

// waitBatch blocks until the batch is terminal (bounded).
func waitBatch(t *testing.T, b *Batch) BatchInfo {
	t.Helper()
	select {
	case <-b.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("batch %s never finished", b.ID())
	}
	return b.Info()
}

func TestRequestFingerprintRouting(t *testing.T) {
	base := Request{Experiments: []string{"table4"}}
	fp := base.Fingerprint()
	if fp == "" || len(fp) != 64 {
		t.Fatalf("Fingerprint() = %q, want a 64-hex hash", fp)
	}
	// Scheduling metadata must not move a request between nodes.
	same := []Request{
		{Experiments: []string{"table4"}, Workers: 7},
		{Experiments: []string{"table4"}, Tenant: "acme"},
		{Experiments: []string{"table4"}, Scale: 1000, Seed: 42}, // explicit defaults
	}
	for i, r := range same {
		if r.Fingerprint() != fp {
			t.Errorf("case %d: scheduling metadata changed the routing fingerprint", i)
		}
	}
	// Work definition changes must.
	diff := []Request{
		{Experiments: []string{"table1"}},
		{Experiments: []string{"table4"}, Seed: 43},
		{Experiments: []string{"table4"}, Scale: 500},
		{},
	}
	for i, r := range diff {
		if r.Fingerprint() == fp {
			t.Errorf("case %d: work change did not move the routing fingerprint", i)
		}
	}
	// And the batch fingerprint chains member fingerprints in order.
	b1 := BatchFingerprint([]Request{base, {Experiments: []string{"table1"}}})
	b2 := BatchFingerprint([]Request{{Experiments: []string{"table1"}}, base})
	if b1 == b2 {
		t.Error("BatchFingerprint ignored member order")
	}
}

// TestThermalRequest pins the thermal spec's routing and validation story:
// nil keeps every historical fingerprint, non-nil is a different work
// definition, and an impossible temperature budget is a client error.
func TestThermalRequest(t *testing.T) {
	base := Request{Experiments: []string{"table4"}}
	fp := base.Fingerprint()
	on := Request{Experiments: []string{"table4"}, Thermal: &ThermalSpec{}}
	if err := on.Validate(); err != nil {
		t.Fatalf("zero thermal spec rejected: %v", err)
	}
	if on.Fingerprint() == fp {
		t.Error("enabling thermal did not move the routing fingerprint")
	}
	budget := Request{Experiments: []string{"table4"}, Thermal: &ThermalSpec{TMaxC: 85}}
	if err := budget.Validate(); err != nil {
		t.Fatalf("valid thermal budget rejected: %v", err)
	}
	if budget.Fingerprint() == on.Fingerprint() {
		t.Error("TMaxC change did not move the routing fingerprint")
	}
	for _, bad := range []ThermalSpec{
		{TMaxC: -5},   // below ambient
		{TMaxC: 4000}, // above the plausibility cap
		{Vias: -1},    // negative budget
		{TempWeightPerC: -0.5},
	} {
		r := Request{Experiments: []string{"table4"}, Thermal: &bad}
		if err := r.Validate(); !errors.Is(err, errs.ErrBadRequest) {
			t.Errorf("spec %+v: err = %v, want ErrBadRequest", bad, err)
		}
	}
}

func TestNodePrefixedIDs(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 8, NodeID: "east_1"})
	defer closeNow(t, m)
	j := mustSubmit(t, m, smallReq(""))
	if !strings.HasPrefix(j.ID(), "east_1-job-") {
		t.Fatalf("job ID %q lacks the node prefix", j.ID())
	}
	b, err := m.SubmitBatch([]Request{smallReq("")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.ID(), "east_1-batch-") {
		t.Fatalf("batch ID %q lacks the node prefix", b.ID())
	}
}

// TestTenantQuota pins the 429-vs-503 distinction: a tenant at its quota
// is rejected with ErrQuotaExceeded while another tenant is still
// admitted; global queue pressure still yields ErrQueueFull.
func TestTenantQuota(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 16, TenantQuota: 2})
	defer closeNow(t, m)
	// Stall the single worker with a first job so subsequent submissions
	// stay queued deterministically... the worker may or may not have
	// dequeued acme's first job; submit quota+1 jobs and require at least
	// one rejection, then check the other tenant.
	var quotaErr error
	admitted := 0
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(smallReq("acme")); err != nil {
			quotaErr = err
		} else {
			admitted++
		}
	}
	if quotaErr == nil {
		t.Fatal("4 rapid submissions never hit the quota of 2")
	}
	if !errors.Is(quotaErr, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", quotaErr)
	}
	if errors.Is(quotaErr, ErrQueueFull) {
		t.Fatal("quota rejection must not read as global queue-full")
	}
	// The other tenant is unaffected by acme's backlog.
	if _, err := m.Submit(smallReq("other")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if admitted < 2 {
		t.Fatalf("only %d acme jobs admitted under quota 2", admitted)
	}
}

// TestBatchLifecycle runs a two-member batch to completion and pins the
// multiplexed stream: dense batch Seq, per-job Seq preserved, every
// member's queued and terminal events present, terminal batch state.
func TestBatchLifecycle(t *testing.T) {
	m := NewManager(Options{Workers: 2, QueueDepth: 8})
	defer closeNow(t, m)
	b, err := m.SubmitBatch([]Request{smallReq(""), {Experiments: []string{"table4"}, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	info := waitBatch(t, b)
	if info.State != StateDone {
		t.Fatalf("batch state = %s, want done", info.State)
	}
	if len(info.Jobs) != 2 || info.Jobs[0].Result == nil || info.Jobs[1].Result == nil {
		t.Fatalf("batch members incomplete: %+v", info.Jobs)
	}
	// Same experiment, different seed: results must differ.
	if info.Jobs[0].Result.Fingerprint == info.Jobs[1].Result.Fingerprint {
		t.Fatal("different seeds produced identical result fingerprints")
	}

	events, _, terminal := b.EventsSince(0)
	if !terminal {
		t.Fatal("terminal batch reported non-terminal stream")
	}
	perJob := map[string]int{}
	sawQueued := map[string]bool{}
	sawTerminal := map[string]bool{}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("batch Seq not dense: event %d has seq %d", i, ev.Seq)
		}
		if ev.Event.Seq != perJob[ev.Job] {
			t.Fatalf("job %s events reordered in batch stream: got seq %d, want %d",
				ev.Job, ev.Event.Seq, perJob[ev.Job])
		}
		perJob[ev.Job]++
		if ev.Event.Kind == "state" {
			switch {
			case ev.Event.State == StateQueued:
				sawQueued[ev.Job] = true
			case ev.Event.State.Terminal():
				sawTerminal[ev.Job] = true
			}
		}
	}
	for _, j := range b.Jobs() {
		if !sawQueued[j.ID()] || !sawTerminal[j.ID()] {
			t.Fatalf("job %s missing queued/terminal events in batch stream", j.ID())
		}
	}

	// ?from= resume semantics.
	tail, _, _ := b.EventsSince(len(events) - 1)
	if len(tail) != 1 || tail[0].Seq != len(events)-1 {
		t.Fatalf("EventsSince(last) = %+v", tail)
	}

	// A job is a batch of one: SubmitBatch([r]) and Submit(r) give the same
	// result fingerprint and the same sequence of event kinds and states,
	// and the batch stream is the member's job stream tagged with its ID.
	r := Request{Experiments: []string{"table4"}, Seed: 11}
	one, err := m.SubmitBatch([]Request{r})
	if err != nil {
		t.Fatal(err)
	}
	single := mustSubmit(t, m, r)
	oneInfo, singleInfo := waitBatch(t, one), wait(t, single)
	if oneInfo.State != StateDone || singleInfo.State != StateDone {
		t.Fatalf("batch of one ended %s, single job %s", oneInfo.State, singleInfo.State)
	}
	if oneInfo.Jobs[0].Result.Fingerprint != singleInfo.Result.Fingerprint {
		t.Fatal("batch of one and single job produced different result fingerprints")
	}
	member := one.Jobs()[0]
	memberEvents, _, _ := member.EventsSince(0)
	singleEvents, _, _ := single.EventsSince(0)
	if len(memberEvents) != len(singleEvents) {
		t.Fatalf("batch member has %d events, single job %d", len(memberEvents), len(singleEvents))
	}
	for i := range memberEvents {
		if memberEvents[i].Kind != singleEvents[i].Kind || memberEvents[i].State != singleEvents[i].State {
			t.Fatalf("event %d: batch member %+v, single job %+v", i, memberEvents[i], singleEvents[i])
		}
	}
	batchEvents, _, _ := one.EventsSince(0)
	if len(batchEvents) != len(memberEvents) {
		t.Fatalf("batch stream has %d events, member stream %d", len(batchEvents), len(memberEvents))
	}
	for i, ev := range batchEvents {
		if want := (BatchEvent{Seq: i, Job: member.ID(), Event: memberEvents[i]}); ev != want {
			t.Fatalf("batch event %d = %+v, want %+v", i, ev, want)
		}
	}
}

// TestBatchAllOrNothing pins atomic admission: a batch that would
// overflow the queue admits no member at all.
func TestBatchAllOrNothing(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2, TenantQuota: 2})
	defer closeNow(t, m)
	// Overflow the global depth.
	if _, err := m.SubmitBatch([]Request{smallReq("a"), smallReq("b"), smallReq("c")}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := len(m.Infos()); n != 0 {
		t.Fatalf("failed batch leaked %d jobs", n)
	}
	// Overflow one tenant's quota (fits the queue... no: depth 2 also, use
	// a fresh manager with room).
	m2 := NewManager(Options{Workers: 1, QueueDepth: 16, TenantQuota: 2})
	defer closeNow(t, m2)
	if _, err := m2.SubmitBatch([]Request{smallReq("a"), smallReq("a"), smallReq("a")}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if n := len(m2.Infos()); n != 0 {
		t.Fatalf("failed batch leaked %d jobs", n)
	}
	// An invalid member rejects the whole batch.
	if _, err := m2.SubmitBatch([]Request{smallReq(""), {Experiments: []string{"ghost"}}}); !errors.Is(err, errs.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	// And the empty batch is a bad request.
	if _, err := m2.SubmitBatch(nil); !errors.Is(err, errs.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

// TestBatchUnknown pins the 404 sentinel.
func TestBatchUnknown(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 2})
	defer closeNow(t, m)
	if _, err := m.GetBatch("batch-999999"); !errors.Is(err, ErrUnknownBatch) {
		t.Fatalf("err = %v, want ErrUnknownBatch", err)
	}
}

// TestBatchShutdownCancels submits a batch then closes the manager: every
// member must reach a terminal state and the batch stream must terminate.
func TestBatchShutdownCancels(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueDepth: 8})
	b, err := m.SubmitBatch([]Request{smallReq(""), smallReq(""), {Experiments: []string{"table1"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	info := waitBatch(t, b)
	for _, ji := range info.Jobs {
		if !ji.State.Terminal() {
			t.Fatalf("member %s left in state %s after Close", ji.ID, ji.State)
		}
	}
}
