// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every other subsystem in this repository:
// the packet-level fabric, the verbs transport layer, the collective
// protocol state machines, and the DPA execution model all advance virtual
// time exclusively through events scheduled here.
//
// The engine is intentionally single-threaded: determinism (same seed, same
// schedule, same results, bit for bit) is worth far more to a reproduction
// study than intra-simulation parallelism. Benchmarks that need wall-clock
// parallelism run many independent Engine instances concurrently.
//
// # Scheduler
//
// Events are ordered by (time, insertion sequence): ties fire FIFO with
// respect to scheduling order, and that order is the determinism contract
// every golden value in this repository depends on. Internally the queue is
// a hybrid: a bucketed near-future calendar ("ladder") covering a sliding
// window ahead of the clock, backed by a binary heap for far-future events
// (retransmission timers, cutoff timers, scenario schedules). Insertion
// into the window is O(1). When the clock reaches a bucket, a counting
// sort on each event's offset inside the bucket orders it in O(n) with no
// comparisons. The sort is stable and keyed on time alone; it yields the
// full (time, seq) order because every bucket keeps its equal-time events
// in sequence order, an invariant CheckQueue verifies. The pop order is exactly the (at, seq)
// order a single binary heap would produce — checked against a reference
// heap over randomized schedules (hybrid_test.go) and fuzzer-chosen ones
// (FuzzHybridMatchesReferenceHeap in fuzz_test.go).
//
// # Handlers
//
// There is one way to schedule an event: AtHandler/AfterHandler, a typed
// Handler interface plus packed arguments (a uint64, an int, and one
// pointer-shaped payload). An event holds no closure, so everything a
// pending event will act on is a field of its handler or its payload —
// state a model-graph capture (internal/snap) can see and rewind. Events
// are recycled through a free list once fired or cancelled, so
// steady-state scheduling does not allocate at all. Cancellation goes
// through the value-type Handle, which carries a generation number so a
// stale handle held across the event's recycling is a no-op.
package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Time is virtual simulation time in nanoseconds. Using a dedicated type
// (rather than time.Duration) keeps virtual and wall-clock time from being
// confused at call sites.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the latest representable virtual time.
const MaxTime Time = math.MaxInt64

// Duration converts a virtual time span to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(int64(t)) }

// Seconds returns the virtual time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the virtual time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return t.Duration().String() }

// Calendar-queue geometry: 256 buckets of 512 ns cover a 128 µs window
// ahead of the clock. Packet-scale events (serialization ~170 ns, hop
// latency 250 ns) land a few buckets out; RC retransmission timeouts
// (200 µs+) and scenario schedules overflow to the far-future heap.
const (
	bucketShift = 9 // log2(bucket width in ns)
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 256
	windowSpan  = Time(numBuckets) << bucketShift
)

// Event locations within the hybrid queue.
const (
	locNone   int8 = iota // not queued (fired, cancelled-and-removed, or free)
	locBucket             // in a (possibly unsorted) calendar bucket
	locCur                // in the open bucket's insertion heap
	locFar                // in the far-future binary heap
)

// Handler is the event callback: one OnEvent call per fired event, with
// the arguments packed at scheduling time. ev identifies the firing event
// (it equals the Handle returned by AtHandler); obj carries one
// pointer-shaped payload (a *Packet, a *QP — a pointer, so boxing it does
// not allocate) and may be nil.
//
// Events are pooled: the engine recycles the Event before OnEvent runs, so
// ev is already stale inside the call.
type Handler interface {
	OnEvent(e *Engine, ev Handle, arg0 uint64, arg1 int, obj any)
}

// Event is a scheduled handler call. Events are ordered by time; ties are
// broken by insertion sequence so the execution order of simultaneous
// events is deterministic and FIFO with respect to scheduling order. Only
// the engine holds *Event pointers; callers hold Handles.
type Event struct {
	at       Time
	seq      uint64
	gen      uint64 // bumped each time the event is recycled
	index    int    // heap index while in far/cur heaps; -1 otherwise
	where    int8
	canceled bool
	eng      *Engine
	h        Handler
	arg0     uint64
	arg1     int
	obj      any
}

// cancel prevents a pending event from firing. The event leaves the live
// count immediately and its handler and payload are released at once (so a
// cancelled long-lived timer does not pin them); far-future events are also
// removed from the heap immediately, while near-future bucket entries are
// reclaimed when the clock reaches their bucket. Cancelling an event that
// is not queued (or was already cancelled) is a no-op.
func (e *Event) cancel() {
	if e.canceled || e.where == locNone {
		return
	}
	e.canceled = true
	e.h = nil
	e.obj = nil
	eng := e.eng
	eng.live--
	switch e.where {
	case locFar:
		eng.far.remove(e.index)
		e.where = locNone
		eng.release(e)
	case locCur:
		eng.cur.remove(e.index)
		eng.nearCount--
		e.where = locNone
		eng.release(e)
	case locBucket:
		// Left in place; the bucket sweep recycles it.
	}
}

// Handle is a value-type reference to a scheduled event. The zero Handle
// is inert. Because events are recycled, the handle carries the generation
// it was issued under: cancelling a handle whose event has since fired and
// been reused is a safe no-op, which is exactly the semantics a
// retransmission timer racing its own ack needs.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel cancels the referenced event if it is still the same incarnation
// and still pending; otherwise it does nothing.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.cancel()
	}
}

// Active reports whether the referenced event is still pending.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Time returns the firing time of the referenced event, or -1 if the handle
// is stale (fired, cancelled and recycled, or zero).
func (h Handle) Time() Time {
	if h.ev == nil || h.ev.gen != h.gen {
		return -1
	}
	return h.ev.at
}

// eventHeap is a binary min-heap on (at, seq) that keeps each event's slot
// in Event.index; it holds the far-future overflow and the insertions into
// the already-open bucket. It is typed rather than a container/heap
// interface so the sift loops compare and move events without dynamic
// dispatch; the layouts are the ones container/heap would produce.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove takes the event in slot i out of the heap and returns it.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i, last) {
		h.up(i, last)
	}
	ev.index = -1
	return ev
}

// up files ev into the hole at slot j, moving it toward the root past
// every later-firing parent.
func (h eventHeap) up(j int, ev *Event) {
	for j > 0 {
		i := (j - 1) / 2
		if !before(ev, h[i]) {
			break
		}
		h[j] = h[i]
		h[j].index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down files ev into the hole at slot i0, moving it toward the leaves past
// every earlier-firing child; it reports whether ev moved.
func (h eventHeap) down(i0 int, ev *Event) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if r := j + 1; r < len(h) && before(h[r], h[j]) {
			j = r
		}
		if !before(h[j], ev) {
			break
		}
		h[i] = h[j]
		h[i].index = i
		i = j
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// before reports whether a fires before b under the engine's total order.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator instance. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	rng     *RNG
	stopped bool

	// Near-future calendar: buckets of bucketWidth ns covering
	// [base, base+windowSpan). cursor is the bucket being (or next to be)
	// consumed; when opened, buckets[cursor][pos:] is the sorted remainder
	// and cur holds events inserted into the open bucket after sorting.
	base      Time
	cursor    int
	opened    bool
	pos       int
	buckets   [numBuckets][]*Event
	cur       eventHeap
	nearCount int // events physically held in buckets + cur (incl. cancelled)

	// Far-future overflow: everything at or beyond base+windowSpan.
	far eventHeap

	live int // scheduled, not yet fired, not cancelled

	free []*Event // recycled events

	// openBucket's counting-sort scratch, kept so that opening a bucket
	// does not allocate in steady state.
	counts [bucketWidth + 1]int32
	sorted []*Event

	// Throughput counters, exported so harnesses can surface engine
	// throughput in their Records (all three are deterministic counts).
	//
	// Executed counts events that have fired, for diagnostics and for
	// guarding against runaway simulations in tests. Scheduled counts every
	// AtHandler/AfterHandler call. Recycled counts events served from the
	// free list instead of the heap allocator.
	Executed  uint64
	Scheduled uint64
	Recycled  uint64

	// splits records the child generators handed out by SplitRNG, in
	// creation order, so Reseed can replay the derivations and leave every
	// child in exactly the state a cold construction with the new seed
	// would have produced.
	splits []*RNG

	// EventHook, when non-nil, observes every fired event just before its
	// handler runs: the firing time, its sequence key and the handler. It
	// exists for the replay debugger's step mode; the nil check is the only
	// cost on the hot path.
	EventHook func(at Time, seq uint64, h Handler)
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// SplitRNG derives a child generator from the engine's root RNG and records
// it, so Snapshot captures its state and Reseed can re-derive it. Model
// layers that seed themselves from the engine at construction (the fabric's
// drop/jitter stream) must use this instead of RNG().Split() to stay
// snapshot- and reseed-coherent.
func (e *Engine) SplitRNG() *RNG {
	r := e.rng.Split()
	e.splits = append(e.splits, r)
	return r
}

// Reseed rewinds the engine's RNG tree to the state a cold NewEngine(seed)
// construction would have: the root is reseeded and every SplitRNG child is
// re-derived in its original creation order. It is only sound while the
// root stream has been consumed exclusively by SplitRNG since construction
// — true for every model layer in this repository, where runtime draws come
// from the children — and exists so a warm-forked instance can adopt a new
// sweep point's seed exactly as if it had been built cold with it.
func (e *Engine) Reseed(seed uint64) {
	e.rng.SetState(NewRNG(seed).State())
	for _, child := range e.splits {
		child.SetState(e.rng.Split().State())
	}
}

// AtHandler schedules h.OnEvent(e, handle, arg0, arg1, obj) at absolute
// virtual time t. The event is drawn from the engine's free list and
// recycled after firing or cancellation. obj must be pointer-shaped (or
// nil) to stay allocation-free. Scheduling in the past panics: that is
// always a protocol-logic bug, and silently clamping would mask it.
func (e *Engine) AtHandler(t Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.get()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.arg0 = arg0
	ev.arg1 = arg1
	ev.obj = obj
	e.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// AfterHandler schedules h.OnEvent d nanoseconds from now; see AtHandler.
func (e *Engine) AfterHandler(d Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtHandler(e.now+d, h, arg0, arg1, obj)
}

// get pops a recycled event or allocates a fresh one.
func (e *Engine) get() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.Recycled++
		return ev
	}
	return &Event{eng: e, index: -1}
}

// release returns an event to the free list, bumping its generation so
// outstanding Handles go stale.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.h = nil
	ev.obj = nil
	ev.arg0, ev.arg1 = 0, 0
	ev.canceled = false
	ev.where = locNone
	ev.index = -1
	e.free = append(e.free, ev)
}

// schedule files the event into the hybrid queue.
func (e *Engine) schedule(ev *Event) {
	e.Scheduled++
	e.live++
	delta := ev.at - e.base
	if delta < 0 {
		// The window was jumped ahead of the clock (RunUntil past a queue
		// gap, then a schedule before the far-future frontier). Rebase the
		// whole calendar onto this event's time; rare, O(near events).
		e.rebase(ev.at)
		delta = 0
	}
	if delta < windowSpan {
		idx := int(delta >> bucketShift)
		if idx == e.cursor && e.opened {
			ev.where = locCur
			e.cur.push(ev)
			e.nearCount++
			return
		}
		if idx < e.cursor {
			// An earlier-in-window insertion (possible after RunUntil
			// advanced the clock past empty buckets): step the cursor back.
			e.closeOpen()
			e.cursor = idx
		}
		ev.where = locBucket
		e.buckets[idx] = append(e.buckets[idx], ev)
		e.nearCount++
		return
	}
	ev.where = locFar
	e.far.push(ev)
}

// closeOpen folds an open bucket back into unsorted state: the unconsumed
// sorted remainder and any open-bucket insertions are merged back into the
// bucket slice so a later openBucket re-sorts the union.
func (e *Engine) closeOpen() {
	if !e.opened {
		return
	}
	b := e.buckets[e.cursor]
	n := copy(b, b[e.pos:])
	for i := n; i < len(b); i++ {
		b[i] = nil
	}
	b = b[:n]
	for len(e.cur) > 0 {
		ev := e.cur.remove(0)
		ev.where = locBucket
		b = append(b, ev)
	}
	e.buckets[e.cursor] = b
	e.pos = 0
	e.opened = false
}

// rebase moves every near-future event to the far heap and restarts the
// window at t. Only schedule() calls it, for times below the current base.
func (e *Engine) rebase(t Time) {
	e.closeOpen()
	for i := range e.buckets {
		for _, ev := range e.buckets[i] {
			ev.where = locFar
			e.far.push(ev)
		}
		e.buckets[i] = e.buckets[i][:0]
	}
	e.nearCount = 0
	e.base = t
	e.cursor = 0
	e.refill()
}

// refill drains far-future events that now fall inside the window into
// their buckets. Callers reset cursor before refilling.
func (e *Engine) refill() {
	for len(e.far) > 0 && e.far[0].at-e.base < windowSpan {
		ev := e.far.remove(0)
		ev.where = locBucket
		idx := int((ev.at - e.base) >> bucketShift)
		e.buckets[idx] = append(e.buckets[idx], ev)
		e.nearCount++
	}
}

// openBucket sorts the cursor's bucket by (at, seq) and starts consuming it.
//
// The sort is a stable counting sort on the 9-bit in-bucket offset
// at-start alone. That is a full (at, seq) sort because every bucket
// already holds its equal-at events in seq order. Direct appends carry the newest seq; refill
// and rebase drain the far heap in (at, seq) order into emptied buckets;
// closeOpen puts the sorted remainder before the later-seq open-bucket
// inserts; and Restore re-files a Snapshot's events in (at, seq) order.
func (e *Engine) openBucket() {
	b := e.buckets[e.cursor]
	start := e.base + Time(e.cursor)<<bucketShift
	// counts[k+1] tallies offset k; the prefix sum turns counts[k] into
	// the first output slot of offset k.
	counts := &e.counts
	clear(counts[:])
	for _, ev := range b {
		counts[ev.at-start+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	sorted := slices.Grow(e.sorted[:0], len(b))[:len(b)]
	for _, ev := range b {
		k := ev.at - start
		sorted[counts[k]] = ev
		counts[k]++
	}
	copy(b, sorted)
	clear(sorted) // the scratch must not pin fired events' payloads
	e.sorted = sorted[:0]
	e.pos = 0
	e.opened = true
}

// advance moves the cursor to the next non-empty bucket, wrapping the
// window (and refilling from the far heap) as needed. Precondition: the
// current bucket is closed and at least one event is queued somewhere.
func (e *Engine) advance() {
	if e.nearCount == 0 {
		// Nothing inside the window: jump it to the far-future frontier
		// instead of sliding one span at a time toward a distant timer.
		e.base = e.far[0].at
		e.cursor = 0
		e.refill()
	}
	for len(e.buckets[e.cursor]) == 0 {
		e.cursor++
		if e.cursor == numBuckets {
			e.base += windowSpan
			e.cursor = 0
			e.refill()
		}
	}
	e.openBucket()
}

// peekEvent returns the next live event without consuming it (nil when the
// queue is empty), pruning cancelled bucket entries as it goes.
func (e *Engine) peekEvent() *Event {
	for {
		if !e.opened {
			if e.nearCount == 0 && len(e.far) == 0 {
				return nil
			}
			e.advance()
		}
		b := e.buckets[e.cursor]
		for e.pos < len(b) && b[e.pos].canceled {
			ev := b[e.pos]
			b[e.pos] = nil
			e.pos++
			e.nearCount--
			ev.where = locNone
			e.release(ev)
		}
		// No cancelled-entry sweep for e.cur: Cancel removes open-bucket
		// entries eagerly, so its root is always live.
		var next *Event
		if e.pos < len(b) {
			next = b[e.pos]
		}
		if len(e.cur) > 0 && (next == nil || before(e.cur[0], next)) {
			next = e.cur[0]
		}
		if next != nil {
			return next
		}
		// Open bucket exhausted: recycle its slice; the next iteration's
		// advance() finds the following non-empty bucket.
		e.buckets[e.cursor] = b[:0]
		e.pos = 0
		e.opened = false
	}
}

// popEvent consumes and returns the next live event, or nil.
func (e *Engine) popEvent() *Event {
	ev := e.peekEvent()
	if ev == nil {
		return nil
	}
	if ev.where == locCur {
		e.cur.remove(0)
	} else {
		e.buckets[e.cursor][e.pos] = nil
		e.pos++
	}
	e.nearCount--
	ev.where = locNone
	return ev
}

// Pending returns the number of events still queued. Cancelled events leave
// the count at Cancel time.
func (e *Engine) Pending() int { return e.live }

// PeekTime returns the firing time of the next live event. ok is false when
// the queue is empty. Peeking may slide the calendar window but never
// consumes or reorders events.
func (e *Engine) PeekTime() (t Time, ok bool) {
	ev := e.peekEvent()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// PoolSize returns the number of events currently parked on the free list
// (diagnostics for allocation tests).
func (e *Engine) PoolSize() int { return len(e.free) }

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event and reports whether one was pending. Run and
// RunUntil loop over it; the replay debugger single-steps with it.
func (e *Engine) Step() bool {
	ev := e.popEvent()
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.at
	e.Executed++
	e.live--
	if e.EventHook != nil {
		e.EventHook(ev.at, ev.seq, ev.h)
	}
	h, a0, a1, obj := ev.h, ev.arg0, ev.arg1, ev.obj
	hd := Handle{ev: ev, gen: ev.gen}
	// Recycle before dispatch so the handler's own scheduling reuses this
	// very event; hd stays distinguishable through its generation.
	e.release(ev)
	h.OnEvent(e, hd, a0, a1, obj)
	return true
}

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline. Events scheduled
// beyond the deadline remain queued. The clock is advanced to the deadline
// if the simulation ran dry before reaching it, which keeps successive
// RunUntil calls monotonic.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		next := e.peekEvent()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) Time { return e.RunUntil(e.now + d) }
