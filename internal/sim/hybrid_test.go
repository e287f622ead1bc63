package sim

import (
	"container/heap"
	"testing"
)

// --- reference model --------------------------------------------------------------
//
// The determinism contract of the hybrid ladder/heap scheduler is that it
// pops events in exactly the (at, seq) order a single binary heap would.
// refQueue is that single binary heap, driven through the identical
// schedule/cancel sequence as the engine.

type refItem struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)     { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() (out any) { old := *q; n := len(old); out = old[n-1]; *q = old[:n-1]; return }
func (q *refQueue) popLive() *refItem {
	for q.Len() > 0 {
		it := heap.Pop(q).(*refItem)
		if !it.canceled {
			return it
		}
	}
	return nil
}

// propHarness drives the engine and the reference queue through the same
// randomized schedule/cancel/re-arm decisions; every firing asserts the two
// agree on which event is next.
type propHarness struct {
	t       *testing.T
	eng     *Engine
	ref     refQueue
	rng     *RNG
	nextID  int
	refSeq  uint64
	live    map[int]Handle // engine-side cancel handles by id
	refByID map[int]*refItem
	fired   []int
	budget  int // schedules remaining
}

// OnEvent fires one event: arg0 carries its id.
func (p *propHarness) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	id := int(arg0)
	want := p.ref.popLive()
	if want == nil {
		p.t.Fatalf("engine fired id %d but reference queue is empty", id)
	}
	if want.id != id {
		p.t.Fatalf("order diverged at firing %d: engine id %d, reference id %d (at %v vs %v)",
			len(p.fired), id, want.id, p.eng.Now(), want.at)
	}
	if want.at != p.eng.Now() {
		p.t.Fatalf("id %d fired at %v, reference says %v", id, p.eng.Now(), want.at)
	}
	delete(p.live, id)
	delete(p.refByID, id)
	p.fired = append(p.fired, id)
	p.act()
}

// act re-arms one replacement event (keeping the population steady until
// the schedule budget drains) and then makes one randomized extra move:
// another schedule, a cancellation of a random live event, or nothing —
// every move applied identically to both structures.
func (p *propHarness) act() {
	if p.budget > 0 {
		p.budget--
		p.schedule(p.randomDelay())
	}
	switch p.rng.Intn(3) {
	case 0: // schedule an extra event
		if p.budget > 0 {
			p.budget--
			p.schedule(p.randomDelay())
		}
	case 1: // cancel a live event (and never fire it)
		p.cancelOne()
	}
}

// cancelOne cancels the smallest live id: a deterministic pick (map
// iteration order would make a failing trace unreproducible from its seed)
// that still exercises cancellation across every queue region, since the
// oldest live event may sit in a bucket, the open heap, or the far heap.
func (p *propHarness) cancelOne() {
	min := -1
	for id := range p.live {
		if min < 0 || id < min {
			min = id
		}
	}
	if min < 0 {
		return
	}
	p.live[min].Cancel()
	p.refByID[min].canceled = true
	delete(p.live, min)
	delete(p.refByID, min)
}

// randomDelay mixes ties (0), in-bucket, in-window, and far-future delays
// so every region of the hybrid queue sees traffic.
func (p *propHarness) randomDelay() Time {
	switch p.rng.Intn(4) {
	case 0:
		return Time(p.rng.Intn(4)) // ties and same-bucket
	case 1:
		return Time(p.rng.Intn(int(windowSpan))) // in-window
	case 2:
		return Time(p.rng.Intn(int(4 * windowSpan))) // window straddling
	default:
		return Time(p.rng.Intn(int(400 * Microsecond))) // far-future timers
	}
}

func (p *propHarness) schedule(d Time) {
	id := p.nextID
	p.nextID++
	at := p.eng.Now() + d
	// Both sides must consume one sequence number per schedule, in the same
	// order, for the (at, seq) tiebreak to be comparable.
	it := &refItem{at: at, seq: p.refSeq, id: id}
	p.refSeq++
	heap.Push(&p.ref, it)
	p.refByID[id] = it
	p.live[id] = p.eng.AfterHandler(d, p, uint64(id), 0, nil)
}

// TestHybridMatchesReferenceHeapOrder schedules >10k events through the
// ladder/heap hybrid — with random cancellations and re-arms along the
// way — and checks every single pop against a reference binary heap's
// (at, seq) order.
func TestHybridMatchesReferenceHeapOrder(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		p := &propHarness{
			t:       t,
			eng:     NewEngine(seed),
			rng:     NewRNG(seed ^ 0x9E3779B97F4A7C15),
			live:    map[int]Handle{},
			refByID: map[int]*refItem{},
			budget:  12000,
		}
		for i := 0; i < 2000 && p.budget > 0; i++ {
			p.budget--
			p.schedule(p.randomDelay())
		}
		p.eng.Run()
		if rest := p.ref.popLive(); rest != nil {
			t.Fatalf("seed %d: engine drained but reference still holds id %d", seed, rest.id)
		}
		if len(p.fired) < 8000 {
			t.Fatalf("seed %d: only %d events fired; cancellation ate the schedule", seed, len(p.fired))
		}
		if p.eng.Pending() != 0 {
			t.Fatalf("seed %d: Pending() = %d after drain", seed, p.eng.Pending())
		}
	}
}

// TestRunUntilThenEarlierSchedule covers the rebase path: RunUntil jumps
// the window toward a far-future timer, then a schedule lands before the
// frontier and must still fire first.
func TestRunUntilThenEarlierSchedule(t *testing.T) {
	e := NewEngine(1)
	var order []string
	at(e, 2*Second, func() { order = append(order, "far") })
	e.RunUntil(100) // window may jump toward the 2 s timer
	at(e, 200, func() { order = append(order, "near") })
	at(e, 150, func() { order = append(order, "nearer") })
	e.Run()
	if len(order) != 3 || order[0] != "nearer" || order[1] != "near" || order[2] != "far" {
		t.Fatalf("order = %v, want [nearer near far]", order)
	}
}

// --- handler API ------------------------------------------------------------------

type recordHandler struct {
	calls []uint64
	objs  []any
	args  []int
}

func (h *recordHandler) OnEvent(_ *Engine, _ Handle, arg0 uint64, arg1 int, obj any) {
	h.calls = append(h.calls, arg0)
	h.args = append(h.args, arg1)
	h.objs = append(h.objs, obj)
}

func TestAtHandlerDeliversPackedArgs(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	payload := &recordHandler{}
	e.AtHandler(30, h, 7, -3, payload)
	e.AfterHandler(10, h, 9, 4, nil)
	e.Run()
	if len(h.calls) != 2 || h.calls[0] != 9 || h.calls[1] != 7 {
		t.Fatalf("calls = %v, want [9 7]", h.calls)
	}
	if h.args[0] != 4 || h.args[1] != -3 {
		t.Fatalf("args = %v, want [4 -3]", h.args)
	}
	if h.objs[0] != nil || h.objs[1] != any(payload) {
		t.Fatalf("objs not delivered: %v", h.objs)
	}
}

func TestHandleCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	near := e.AtHandler(10, h, 1, 0, nil)
	far := e.AtHandler(windowSpan+10*Microsecond, h, 2, 0, nil)
	if !near.Active() || !far.Active() {
		t.Fatal("fresh handles not active")
	}
	near.Cancel()
	far.Cancel()
	if near.Active() || far.Active() {
		t.Fatal("cancelled handles still active")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling both", e.Pending())
	}
	e.Run()
	if len(h.calls) != 0 {
		t.Fatalf("cancelled handler events fired: %v", h.calls)
	}
}

// TestStaleHandleIsNoOp is the retransmission-timer race: a handle whose
// event fired and was recycled into a new event must not cancel the new
// occupant.
func TestStaleHandleIsNoOp(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	first := e.AtHandler(10, h, 1, 0, nil)
	e.Run()
	if len(h.calls) != 1 {
		t.Fatal("first event did not fire")
	}
	// The pool guarantees the next handler event reuses the same *Event.
	second := e.AtHandler(20, h, 2, 0, nil)
	if first.Active() {
		t.Fatal("fired handle reports active")
	}
	first.Cancel() // stale: must not touch the second event
	if !second.Active() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	e.Run()
	if len(h.calls) != 2 || h.calls[1] != 2 {
		t.Fatalf("second event lost: calls = %v", h.calls)
	}
}

func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	const n = 64
	// Sequential one-in-flight schedule/fire cycles should reuse one event.
	for i := 0; i < n; i++ {
		e.AfterHandler(Time(i), h, uint64(i), 0, nil)
		e.Run()
	}
	if e.PoolSize() != 1 {
		t.Fatalf("PoolSize = %d, want 1 (one event recycled %d times)", e.PoolSize(), n)
	}
	if e.Recycled < n-1 {
		t.Fatalf("Recycled = %d, want >= %d", e.Recycled, n-1)
	}
	if e.Scheduled != n || e.Executed != n {
		t.Fatalf("Scheduled/Executed = %d/%d, want %d/%d", e.Scheduled, e.Executed, n, n)
	}
}

// rearmHandler reschedules itself count times: the steady-state hot-path
// shape (fabric hops, send completions) for the allocation gate.
type rearmHandler struct{ remaining int }

func (h *rearmHandler) OnEvent(e *Engine, _ Handle, _ uint64, _ int, _ any) {
	if h.remaining > 0 {
		h.remaining--
		e.AfterHandler(350, h, 0, 0, nil)
	}
}

// TestHandlerPathAllocFree is the allocation gate: the
// schedule/fire/recycle cycle must not allocate at all once the pool is
// warm.
func TestHandlerPathAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &rearmHandler{}
	// Warm the pool and the bucket slices.
	h.remaining = 2048
	e.AfterHandler(1, h, 0, 0, nil)
	e.Run()
	avg := testing.AllocsPerRun(50, func() {
		h.remaining = 512
		e.AfterHandler(1, h, 0, 0, nil)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("handler hot path allocates: %.2f allocs per 513-event run, want 0", avg)
	}
}

// TestTimerCancelRearmAllocFree gates the RC retransmission pattern: arm a
// far-future timer, cancel it, re-arm — the pool must absorb it without
// garbage.
func TestTimerCancelRearmAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	for i := 0; i < 64; i++ { // warm
		e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
		}
	})
	if avg != 0 {
		t.Fatalf("timer cancel/re-arm allocates: %.2f allocs per 32 cycles, want 0", avg)
	}
}
