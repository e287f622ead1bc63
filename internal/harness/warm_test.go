package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The warm-start contract: a forked continuation produces the Record a
// cold construction of the same point would — byte-identically, at every
// worker count, with telemetry on or off. These tests are
// the harness-level half of the fork property (the engine-level half
// lives in internal/sim): they run real sweeps both ways and diff the
// JSON-serialized records, which covers every metric, the embedded
// Results, and the telemetry snapshots in one comparison.

// recordsJSON canonicalizes records for comparison.
func recordsJSON(t *testing.T, recs []sweep.Record) string {
	t.Helper()
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func diffWarmCold(t *testing.T, label string, cold, warm []sweep.Record) {
	t.Helper()
	cj, wj := recordsJSON(t, cold), recordsJSON(t, warm)
	if cj != wj {
		t.Errorf("%s: warm-start records diverge from cold records\ncold: %.2000s\nwarm: %.2000s", label, cj, wj)
	}
}

// TestWarmResilienceByteIdentical forks one shared testbed stack across a
// quiet anchor and two perturbation scenarios and requires the records to
// match a cold sweep at several worker counts.
func TestWarmResilienceByteIdentical(t *testing.T) {
	grid := ResilienceGrid([]string{"mcast-allgather"},
		[]string{"quiet", "flap-spine", "tenant-50load"}, 16, 4096, 7)
	cold, err := ResilienceRecords(grid, 1)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for _, workers := range []int{1, 3} {
		warm, err := WarmResilienceRecords(grid, workers)
		if err != nil {
			t.Fatalf("workers=%d warm: %v", workers, err)
		}
		diffWarmCold(t, "chaos", cold, warm)
	}
}

// TestWarmResilienceTelemetry repeats the comparison with telemetry
// enabled: registries and samplers are part of the forked state, so the
// per-record metric snapshots must also rewind byte-identically.
func TestWarmResilienceTelemetry(t *testing.T) {
	SetTelemetry(telemetry.Config{Enabled: true})
	defer SetTelemetry(telemetry.Config{})
	grid := ResilienceGrid([]string{"mcast-allgather"},
		[]string{"quiet", "flap-spine"}, 16, 4096, 7)
	cold, err := ResilienceRecords(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := WarmResilienceRecords(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	diffWarmCold(t, "chaos+telemetry", cold, warm)
}

// TestWarmOSUByteIdentical shares one stack across a message-size sweep
// (the OSU warm key drops the size axis) and checks cold equivalence.
func TestWarmOSUByteIdentical(t *testing.T) {
	cfg := OSUConfig{Iters: 3, Warmup: 1, LinkGbps: 56}
	grid := sweep.Grid{
		Algorithms: []string{"mcast-allgather"},
		Nodes:      []int{8},
		MsgBytes:   []int{1024, 4096, 16384},
		Seed:       3,
	}
	cold, err := sweep.RunGrid(grid, 1, OSUKernel(cfg))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := sweep.RunWarm(grid.Expand(), 2, WarmOSU(cfg))
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	diffWarmCold(t, "osu", cold, warm)
}

// TestWarmTrainByteIdentical forks one workload stack across scenarios.
func TestWarmTrainByteIdentical(t *testing.T) {
	cfg := TrainConfig{}
	grid := TrainGrid([]string{"fsdp-inc"}, []int{4}, []int{64 << 10},
		[]string{"quiet", "flap-spine"}, 21)
	cold, err := sweep.RunGrid(grid, 1, TrainKernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sweep.RunWarm(grid.Expand(), 1, WarmTrain(cfg))
	if err != nil {
		t.Fatal(err)
	}
	AnnotateSlowdown(cold)
	AnnotateSlowdown(warm)
	diffWarmCold(t, "train", cold, warm)
}
