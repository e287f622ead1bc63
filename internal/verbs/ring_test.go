package verbs

import (
	"testing"

	"repro/internal/fabric"
)

func TestRingFIFOAcrossWrapAround(t *testing.T) {
	var r ring[int]
	next, want := 0, 0
	for ; next < 5; next++ {
		r.push(next)
	}
	// Five stay queued while a hundred more pass through: the head laps
	// the 8-slot buffer a dozen times without growing it.
	for i := 0; i < 100; i++ {
		r.push(next)
		next++
		if v, ok := r.pop(); !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, ok, want)
		}
		want++
	}
	if len(r.buf) != 8 || r.len() != 5 {
		t.Fatalf("buffer %d slots holding %d, want 8 holding 5", len(r.buf), r.len())
	}
}

func TestRingGrowsWhileWrapped(t *testing.T) {
	var r ring[int]
	for i := 0; i < 8; i++ {
		r.push(i)
	}
	for i := 0; i < 5; i++ {
		r.pop()
	}
	for i := 8; i < 13; i++ { // refill the freed slots at the front
		r.push(i)
	}
	if len(r.buf) != 8 || r.head != 5 {
		t.Fatalf("want a full, wrapped 8-slot ring; have %d slots, head %d", len(r.buf), r.head)
	}
	r.push(13) // full: doubles while wrapped
	if len(r.buf) != 16 || r.len() != 9 {
		t.Fatalf("after growth: %d slots holding %d, want 16 holding 9", len(r.buf), r.len())
	}
	for want := 5; want <= 13; want++ {
		if v, ok := r.pop(); !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := r.pop(); ok || r.len() != 0 {
		t.Fatal("drained ring still pops")
	}
}

func TestRingPopReleasesSlot(t *testing.T) {
	var r ring[recvWQE]
	r.push(recvWQE{wrID: 1, mr: &MR{Size: 8}})
	r.pop()
	for i, w := range r.buf {
		if w.mr != nil {
			t.Fatalf("slot %d still pins its MR after pop", i)
		}
	}
}

// TestRQRingDepthAcrossWrap checks the receive queue's refusal at its
// depth, RQLen, and FIFO consumption once the ring has wrapped.
func TestRQRingDepthAcrossWrap(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, 6)
	mr := a.RegisterMR(64)
	next, want := uint64(0), uint64(0)
	for round := 0; round < 5; round++ {
		for qp.PostRecv(next, mr, 0, 64) {
			next++
		}
		if qp.RQLen() != 6 {
			t.Fatalf("round %d: RQLen = %d at refusal, want 6", round, qp.RQLen())
		}
		for i := 0; i < 4; i++ {
			w, ok := qp.popRecv()
			if !ok || w.wrID != want {
				t.Fatalf("round %d: popped wrID %d, %v; want %d", round, w.wrID, ok, want)
			}
			want++
		}
		if qp.RQLen() != 2 {
			t.Fatalf("round %d: RQLen = %d after 4 pops, want 2", round, qp.RQLen())
		}
	}
}

func TestCQLenAndPollOrder(t *testing.T) {
	cq := &CQ{}
	for i := 0; i < 20; i++ {
		cq.Push(CQE{WrID: uint64(i)})
		if i%3 == 2 {
			cq.Poll()
		}
	}
	if cq.Len() != 14 || cq.Produced != 20 {
		t.Fatalf("Len = %d, Produced = %d; want 14, 20", cq.Len(), cq.Produced)
	}
	for want := uint64(6); want < 20; want++ {
		if e, ok := cq.Poll(); !ok || e.WrID != want {
			t.Fatalf("Poll = %d, %v; want %d", e.WrID, ok, want)
		}
	}
	if _, ok := cq.Poll(); ok || cq.Len() != 0 {
		t.Fatal("drained CQ still polls")
	}
}

// TestRecvCycleAllocFree gates the per-datagram receive bookkeeping: once
// the rings have reached their high-water mark, reposting a receive and
// consuming it, and pushing a completion and polling it, allocate nothing.
func TestRecvCycleAllocFree(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, 64)
	mr := a.RegisterMR(64)
	for name, cycle := range map[string]func(){
		"PostRecv->popRecv": func() {
			for i := 0; i < 64; i++ {
				qp.PostRecv(uint64(i), mr, 0, 64)
			}
			for i := 0; i < 64; i++ {
				qp.popRecv()
			}
		},
		"Push->Poll": func() {
			for i := 0; i < 64; i++ {
				cq.Push(CQE{Op: OpRecv, WrID: uint64(i)})
			}
			for i := 0; i < 64; i++ {
				cq.Poll()
			}
		},
	} {
		cycle() // grow the ring to the high-water mark
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s allocates: %.2f allocs per 64 datagrams, want 0", name, avg)
		}
	}
}
