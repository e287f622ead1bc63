package command

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// chaos16Manifest is a fixed small chaos manifest whose traced point (the
// last one) is lossy: the hotspot's drops force the recovery and
// fetch-serve phases of the slow path.
const chaos16Manifest = `{
  "kind": "chaos",
  "grid": {
    "algorithms": ["mcast-allgather"],
    "nodes": [16],
    "sizes": [65536],
    "scenarios": ["hotspot-drop"]
  }
}`

// traceRun runs `repro run -trace -perfetto` on a manifest document and
// returns the timeline and Perfetto bytes.
func traceRun(t *testing.T, name, doc string) (timeline, perfetto []byte) {
	t.Helper()
	dir := t.TempDir()
	m := writeManifest(t, dir, name+".json", doc)
	tl, pf := filepath.Join(dir, "timeline.txt"), filepath.Join(dir, "perfetto.json")
	if code, _, errOut := run("run", "-trace", tl, "-perfetto", pf, m); code != 0 {
		t.Fatalf("%s: exit %d: %s", name, code, errOut)
	}
	timeline, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	perfetto, err = os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	return timeline, perfetto
}

// TestTraceGoldens pins the bytes of the traced run: the Figure-9 text
// timeline and the Perfetto document of a quiet osu point and of a lossy
// chaos point must match the checked-in goldens.
func TestTraceGoldens(t *testing.T) {
	for _, c := range []struct{ name, doc string }{
		{"osu8", osu8Manifest},
		{"chaos16", chaos16Manifest},
	} {
		timeline, perfetto := traceRun(t, c.name, c.doc)
		for golden, got := range map[string][]byte{
			"trace_" + c.name + ".golden.txt":     timeline,
			"perfetto_" + c.name + ".golden.json": perfetto,
		} {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: output differs from testdata/%s", c.name, golden)
			}
		}
		if c.name == "chaos16" {
			for _, phase := range []string{telemetry.PhaseRecovery, telemetry.PhaseFetchServe} {
				if !strings.Contains(string(timeline), phase) {
					t.Errorf("lossy chaos timeline has no %s phase", phase)
				}
			}
		}
	}
}

// TestTraceHonorsJitter checks that the traced osu run builds its stack
// the way the sweep does: osu.jitter_us perturbs the deliveries, so the
// traced timelines with and without jitter differ.
func TestTraceHonorsJitter(t *testing.T) {
	doc := func(jitterUS int) string {
		return fmt.Sprintf(`{
  "kind": "osu",
  "grid": {"algorithms": ["mcast-allgather"], "ops": ["allgather"], "nodes": [16], "sizes": [65536]},
  "seed": 3,
  "osu": {"iters": 2, "jitter_us": %d}
}`, jitterUS)
	}
	quiet, _ := traceRun(t, "jitter0", doc(0))
	noisy, _ := traceRun(t, "jitter3", doc(3))
	if string(quiet) == string(noisy) {
		t.Fatal("traced timeline ignores osu.jitter_us: identical with 0 and 3 µs")
	}
}

// TestTrafficCollTelemetry checks that the Figure-12 cells report into the
// point's registry like every other collective kernel: the P2P baselines
// export their coll/* counters, and enabling telemetry leaves the records
// byte-identical.
func TestTrafficCollTelemetry(t *testing.T) {
	dir := t.TempDir()
	m := writeManifest(t, dir, "traffic.json",
		`{"kind": "traffic", "grid": {"nodes": [8], "sizes": [4096]}, "traffic": {"iters": 2}}`)
	plain, traced, metrics := filepath.Join(dir, "plain.json"), filepath.Join(dir, "traced.json"), filepath.Join(dir, "metrics.json")
	if code, _, errOut := run("run", "-json", plain, m); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if code, _, errOut := run("run", "-json", traced, "-metrics", metrics, m); code != 0 {
		t.Fatalf("-metrics: exit %d: %s", code, errOut)
	}
	a, errA := os.ReadFile(plain)
	b, errB := os.ReadFile(traced)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if string(a) != string(b) {
		t.Error("enabling telemetry changed the traffic records")
	}
	doc, err := telemetry.LoadDocument(metrics)
	if err != nil {
		t.Fatal(err)
	}
	const key = "coll/ops_total{kind=ring-allgather}"
	for _, p := range doc.Points {
		if !strings.Contains(p.Key, "ring-allgather") {
			continue
		}
		for _, mt := range p.Metrics {
			if mt.Key == key {
				// One warmup operation plus two measured iterations.
				if mt.Value != 3 {
					t.Fatalf("%s = %d, want 3", key, mt.Value)
				}
				return
			}
		}
	}
	t.Fatalf("no %s in the ring-allgather cell's metrics", key)
}
