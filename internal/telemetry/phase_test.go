package telemetry

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestPhaseNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Phase(1, 0, 1, PhaseDispatch, "") // must not panic
	if len(r.PhaseEvents()) != 0 || len(r.RankPhases(0)) != 0 {
		t.Fatal("nil registry returned events")
	}
	if r.Timeline() != "(no events)\n" {
		t.Fatal("nil timeline wrong")
	}
}

func TestPhaseRecordAndQuery(t *testing.T) {
	r := New(Config{})
	r.Phase(30, 1, 1, PhaseBarrier, "")
	r.Phase(10, 0, 1, PhaseDispatch, "allgather")
	r.Phase(20, 1, 1, PhaseDispatch, "allgather")
	if len(r.PhaseEvents()) != 3 {
		t.Fatalf("events = %d", len(r.PhaseEvents()))
	}
	rank1 := r.RankPhases(1)
	if len(rank1) != 2 || rank1[0].Phase != PhaseDispatch || rank1[1].Phase != PhaseBarrier {
		t.Fatalf("rank 1 phases = %+v", rank1)
	}
	rank0 := r.RankPhases(0)
	if len(rank0) != 1 || rank0[0].T != 10 || rank0[0].Detail != "allgather" {
		t.Fatalf("rank 0 phases = %+v", rank0)
	}
	for _, e := range rank0 {
		if e.Phase == PhaseDone {
			t.Fatal("found phase never recorded")
		}
	}
}

// TestPhasesStayOutOfSnapshot pins that phase events are views, not
// metrics: recording them adds nothing to the canonical Snapshot.
func TestPhasesStayOutOfSnapshot(t *testing.T) {
	r := New(Config{})
	r.Phase(10, 0, 1, PhaseDispatch, "")
	if s := r.Snapshot(); len(s.Metrics) != 0 || len(s.Spans) != 0 {
		t.Fatalf("phase event leaked into the snapshot: %+v", s)
	}
}

func TestPhaseTimelineOrdered(t *testing.T) {
	r := New(Config{})
	r.Phase(sim.Time(300), 2, 1, PhaseDone, "")
	r.Phase(sim.Time(100), 0, 1, PhaseDispatch, "")
	r.Phase(sim.Time(200), 1, 1, PhaseBarrier, "")
	tl := r.Timeline()
	iDispatch := strings.Index(tl, PhaseDispatch)
	iBarrier := strings.Index(tl, PhaseBarrier)
	iDone := strings.Index(tl, PhaseDone)
	if !(iDispatch < iBarrier && iBarrier < iDone) {
		t.Fatalf("timeline not time-ordered:\n%s", tl)
	}
	want := "       100ns  rank   0  op   1  dispatch     \n"
	if !strings.HasPrefix(tl, want) {
		t.Fatalf("timeline line format:\n%q\nwant prefix\n%q", tl, want)
	}
}
