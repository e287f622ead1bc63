package sim

import (
	"maps"
	"slices"
	"testing"
)

// fuzzRef is one live event of the reference model.
type fuzzRef struct {
	at  Time
	seq uint64
	id  int
}

// fuzzSched drives the engine and a reference model through the same
// fuzzer-chosen operations. The reference is a plain slice scanned for its
// (at, seq) minimum: slow, but obviously the order a single binary heap
// produces. Every firing is checked against it, and the queue bookkeeping
// is checked after every operation.
type fuzzSched struct {
	t       *testing.T
	eng     *Engine
	ref     []fuzzRef
	seq     uint64
	nextID  int
	handles map[int]Handle

	snap        *Snapshot
	snapRef     []fuzzRef
	snapSeq     uint64
	snapHandles map[int]Handle
}

func (z *fuzzSched) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) { z.fire(int(arg0)) }

// next returns the reference index of the event due to fire, or -1.
func (z *fuzzSched) next() int {
	best := -1
	for i, r := range z.ref {
		if best < 0 || r.at < z.ref[best].at || (r.at == z.ref[best].at && r.seq < z.ref[best].seq) {
			best = i
		}
	}
	return best
}

func (z *fuzzSched) fire(id int) {
	i := z.next()
	if i < 0 {
		z.t.Fatalf("engine fired id %d at %v, reference is empty", id, z.eng.Now())
	}
	if want := z.ref[i]; want.id != id || want.at != z.eng.Now() {
		z.t.Fatalf("engine fired id %d at %v, reference wants id %d at %v", id, z.eng.Now(), want.id, want.at)
	}
	z.ref = slices.Delete(z.ref, i, i+1)
	delete(z.handles, id)
}

// schedule files one event d from now.
func (z *fuzzSched) schedule(d Time) {
	id := z.nextID
	z.nextID++
	z.ref = append(z.ref, fuzzRef{at: z.eng.Now() + d, seq: z.seq, id: id})
	z.seq++
	z.handles[id] = z.eng.AfterHandler(d, z, uint64(id), 0, nil)
}

func (z *fuzzSched) cancel(k int) {
	if len(z.ref) == 0 {
		return
	}
	i := k % len(z.ref)
	id := z.ref[i].id
	z.handles[id].Cancel()
	delete(z.handles, id)
	z.ref = slices.Delete(z.ref, i, i+1)
}

// runUntil fires everything due by the deadline; the reference must hold
// nothing due afterwards.
func (z *fuzzSched) runUntil(deadline Time) {
	z.eng.RunUntil(deadline)
	if i := z.next(); i >= 0 && z.ref[i].at <= deadline {
		z.t.Fatalf("RunUntil(%v) left id %d due at %v", deadline, z.ref[i].id, z.ref[i].at)
	}
}

func (z *fuzzSched) snapshot() {
	z.snap = z.eng.Snapshot()
	z.snapRef = slices.Clone(z.ref)
	z.snapSeq = z.seq
	z.snapHandles = maps.Clone(z.handles)
}

func (z *fuzzSched) restore() {
	if z.snap == nil {
		return
	}
	z.eng.Restore(z.snap)
	z.ref = slices.Clone(z.snapRef)
	z.seq = z.snapSeq
	z.handles = maps.Clone(z.snapHandles)
}

// fuzzBytes reads the fuzz input; it yields zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) take() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u16() int { return int(b.take())<<8 | int(b.take()) }

// delay decodes one delay class: a tie, an in-bucket offset, an in-window
// delay, or a far-future one.
func (b *fuzzBytes) delay() Time {
	switch b.take() % 4 {
	case 0:
		return Time(b.take() % 4)
	case 1:
		return Time(b.u16()) % bucketWidth
	case 2:
		return Time(b.u16()) * 2 % windowSpan
	default:
		return windowSpan + Time(b.u16())*8
	}
}

// FuzzHybridMatchesReferenceHeap drives the hybrid scheduler through
// fuzzer-chosen schedule, cancel, re-arm, step, RunUntil-then-earlier-
// schedule, burst and mid-sequence Snapshot/Restore operations, checking
// every firing against the reference order and the queue bookkeeping after
// every operation. Bursts put 16 to 79 events, with equal-time ties, into
// one bucket, so the counting sort meets both sparse and crowded offsets
// and the seq tie-break runs.
func FuzzHybridMatchesReferenceHeap(f *testing.F) {
	// One byte selects the operation (its value mod 8, as in the switch
	// below); the bytes after it are that operation's arguments.
	f.Add([]byte{})
	f.Add([]byte{ // a 56-event burst with five distinct offsets, drained
		6, 3, 40, 4,
		3, 7, 3, 7, 3, 7,
	})
	f.Add([]byte{ // snapshot, mutate, restore twice, burst on top
		0, 1, 0, 200, 0, 2, 1, 0, 0, 0, 2, 0, 3, 3, 0,
		5,
		3, 2, 1, 1, 0, 1, 0, 10,
		7, 3, 1,
		7, 6, 0, 60, 200, 3, 7,
	})
	f.Add([]byte{ // open-bucket inserts whose heap order is not seq order, restored
		0, 0, 0, 0, 1, 0, 100,
		3, 0,
		0, 1, 0, 10, 0, 1, 0, 10, 0, 0, 1,
		5, 7,
	})
	f.Add([]byte{ // a far timer, RunUntil short of it, then earlier schedules
		0, 3, 1, 0,
		4, 1, 0, 100, 0, 2,
		0, 1, 0, 50,
		6, 1, 30, 9,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		z := &fuzzSched{t: t, eng: NewEngine(1), handles: map[int]Handle{}}
		in := fuzzBytes(data)
		for len(in) > 0 {
			switch in.take() % 8 {
			case 0:
				z.schedule(in.delay())
			case 1:
				z.cancel(int(in.take()))
			case 2: // re-arm: cancel one event, schedule its replacement
				z.cancel(int(in.take()))
				z.schedule(in.delay())
			case 3:
				for n := int(in.take()%8) + 1; n > 0 && z.eng.Step(); n-- {
				}
			case 4: // RunUntil may slide the window past the clock; the
				// earlier schedule that follows must still fire first
				z.runUntil(z.eng.Now() + in.delay())
				z.schedule(in.delay())
			case 5:
				z.snapshot()
			case 6: // burst into one bucket: ties plus in-bucket spread
				d := Time(in.take()) << bucketShift
				n := int(in.take()%64) + 16
				spread := Time(in.take())%bucketWidth + 1
				for i := 0; i < n; i++ {
					z.schedule(d + Time(i*7)%spread)
				}
			case 7:
				z.restore()
			}
			if err := z.eng.CheckQueue(); err != nil {
				t.Fatal(err)
			}
		}
		z.eng.Run()
		if len(z.ref) != 0 {
			t.Fatalf("engine drained, reference still holds %d events", len(z.ref))
		}
		if err := z.eng.CheckQueue(); err != nil {
			t.Fatal(err)
		}
	})
}
