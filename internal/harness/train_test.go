package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestTrainGoldenStepTimes pins the FSDP step time of both collective
// pairings at the canonical scale (16 ranks, 6 layers, 512 KiB shards,
// 150 µs compute/layer) — the workload-layer equivalent of the registry's
// golden durations. Any change to event ordering, the workload engine's
// issue order, or the collective stacks moves these.
func TestTrainGoldenStepTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("golden step times need the full-size FSDP step")
	}
	grid := TrainGrid([]string{"fsdp-ring", "fsdp-inc"}, []int{16}, []int{512 << 10}, nil, 21)
	recs, err := TrainRecords(grid, 0, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{ // ns
		"fsdp-ring": 5449328,
		"fsdp-inc":  2898262,
	}
	for _, r := range recs {
		ns := int64(r.Metric("duration_us")*1000 + 0.5)
		if ns != want[r.Spec.Workload] {
			t.Errorf("%s step = %d ns, want golden %d", r.Spec.Workload, ns, want[r.Spec.Workload])
		}
		if r.Workload != r.Spec.Workload {
			t.Errorf("record workload metadata %q != spec %q", r.Workload, r.Spec.Workload)
		}
		if r.OverlapFrac <= 0 || r.OverlapFrac >= 1 {
			t.Errorf("%s overlap = %v, want in (0,1)", r.Spec.Workload, r.OverlapFrac)
		}
	}
	// The paper's application-level claim, at the workload layer: the
	// {mcast AG, inc RS} pairing beats {ring, ring} by ~the Appendix B
	// bound (1.88x at P=16).
	speedup := recs[0].Metric("duration_us") / recs[1].Metric("duration_us")
	if speedup < 1.5 || speedup > 2 {
		t.Errorf("inc-pair speedup = %.2f, want ~1.88", speedup)
	}
}

// TestTrainSweepByteIdenticalAcrossWorkers checks the workload sweep keeps
// the engine's determinism contract, scenario composition included.
func TestTrainSweepByteIdenticalAcrossWorkers(t *testing.T) {
	grid := TrainGrid([]string{"fsdp-inc", "dfs-replica"}, []int{8}, []int{64 << 10},
		[]string{"quiet", "tenant-50load"}, 9)
	cfg := TrainConfig{Layers: 2}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		recs, err := TrainRecords(grid, workers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sweep.WriteJSON(&buf, sweep.Report{Name: "train", Records: recs}); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("train sweep JSON differs between -workers 1 and 4")
	}
}

// TestTrainScenarioSlowdown checks a perturbation scenario composed onto
// the live training step costs time relative to the quiet sibling.
func TestTrainScenarioSlowdown(t *testing.T) {
	grid := TrainGrid([]string{"fsdp-inc"}, []int{8}, []int{64 << 10},
		[]string{"quiet", "flap-spine"}, 9)
	recs, err := TrainRecords(grid, 0, TrainConfig{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var quiet, flap float64
	for _, r := range recs {
		switch r.Spec.Scenario {
		case "quiet":
			quiet = r.Metric("slowdown_vs_quiet")
		case "flap-spine":
			flap = r.Metric("slowdown_vs_quiet")
		}
	}
	if quiet != 1 {
		t.Fatalf("quiet slowdown = %v, want 1", quiet)
	}
	if flap <= 1 {
		t.Fatalf("flap-spine slowdown = %v, want > 1", flap)
	}
}

// TestTrainTraceTimeline checks the Figure-9 trace surface: a multicast
// workload records protocol phases; the traced run is independent of the
// sweep.
func TestTrainTraceTimeline(t *testing.T) {
	spec := TrainGrid([]string{"fsdp-inc"}, []int{4}, []int{16 << 10}, nil, 3).Expand()[0]
	reg, err := TrainTrace(spec, TrainConfig{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	timeline := reg.Timeline()
	for _, phase := range []string{"dispatch", "barrier", "done"} {
		if !strings.Contains(timeline, phase) {
			t.Fatalf("timeline missing %q:\n%.400s", phase, timeline)
		}
	}
	if len(reg.Snapshot().Spans) == 0 {
		t.Fatal("traced registry carries no workload spans")
	}
}

// TestCollTraceTimeline checks the collective trace helper for both a traced
// multicast run and the (no events) P2P fallback.
func TestCollTraceTimeline(t *testing.T) {
	s := sweep.Spec{Algorithm: "mcast-allgather", Nodes: 4, MsgBytes: 16 << 10, Seed: 5}
	reg, err := CollTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	if timeline := reg.Timeline(); !strings.Contains(timeline, "dispatch") {
		t.Fatalf("mcast timeline missing dispatch:\n%.200s", timeline)
	}
	s.Algorithm = "ring-allgather"
	reg, err = CollTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	if timeline := reg.Timeline(); !strings.Contains(timeline, "no events") {
		t.Fatalf("ring timeline = %q, want (no events)", timeline)
	}
}
