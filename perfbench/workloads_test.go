package main

import (
	"fmt"
	"testing"

	"repro/internal/sweep"
)

// fakeWarm is a Warmable whose keys group specs by Nodes; Nodes 0 runs cold.
type fakeWarm struct{}

func (fakeWarm) WarmKey(s sweep.Spec) string {
	if s.Nodes == 0 {
		return ""
	}
	return fmt.Sprint(s.Nodes)
}

func (fakeWarm) Build(sweep.Spec) (sweep.Instance, error) { return fakeInst{}, nil }

func (fakeWarm) Cold(s sweep.Spec) (sweep.Record, error) { return sweep.Record{Spec: s}, nil }

type fakeInst struct{}

func (fakeInst) Run(s sweep.Spec) (sweep.Record, error) { return sweep.Record{Spec: s}, nil }

// TestTimedWarmConcurrent drives the timing wrapper and the tracer from the
// sweep's two workers at once.
func TestTimedWarmConcurrent(t *testing.T) {
	var specs []sweep.Spec
	for i := 0; i < 60; i++ {
		specs = append(specs, sweep.Spec{Nodes: i % 4, Seed: uint64(i)})
	}
	tr := newTracer()
	root := tr.begin("pass")
	k := &timedWarm{inner: fakeWarm{}, tr: tr, parent: root}
	recs, err := sweep.RunWarm(specs, 2, k)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("%d records for %d specs", len(recs), len(specs))
	}
	if k.cold != 15 || len(k.pointMs) != 60 {
		t.Errorf("cold %d, points %d; want 15, 60", k.cold, len(k.pointMs))
	}
	if n := len(k.buildMs); n < 3 || n > 6 {
		t.Errorf("%d builds; want one per key per worker, 3 to 6", n)
	}
	if want := 1 + len(k.buildMs) + len(k.pointMs); tr.len() != want {
		t.Errorf("%d spans, want %d", tr.len(), want)
	}
	for _, s := range tr.spans {
		if s.end.IsZero() {
			t.Errorf("span %q never ended", s.name)
		}
		if s.lane > 2 {
			t.Errorf("span %q on lane %d; two workers need at most lanes 1 and 2", s.name, s.lane)
		}
	}
}
