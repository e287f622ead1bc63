package command

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// osu8Manifest is the fixed small OSU manifest the telemetry determinism
// tests share: 8 nodes, one 65536-byte point, 2 measured iterations.
const osu8Manifest = `{
  "kind": "osu",
  "grid": {
    "algorithms": ["mcast-allgather"],
    "ops": ["allgather"],
    "nodes": [8],
    "sizes": [65536]
  },
  "osu": {"iters": 2}
}`

// osuMetricsArgs builds the `repro run` invocation of osu8Manifest that
// writes metrics.json to path, with extra flags ahead of the manifest.
func osuMetricsArgs(t *testing.T, path string, extra ...string) []string {
	t.Helper()
	m := writeManifest(t, t.TempDir(), "osu8.json", osu8Manifest)
	args := append([]string{"run", "-metrics", path}, extra...)
	return append(args, m)
}

// TestMetricsByteIdentity is the telemetry half of the determinism
// contract: the canonical metrics.json must be byte-identical at every
// -workers value, and must match the checked-in golden — so
// any drift in an instrumented counter is a reviewed diff, not silent
// noise.
func TestMetricsByteIdentity(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_osu8.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	configs := map[string][]string{
		"default": nil,
		"w1":      {"-workers", "1"},
		"w4":      {"-workers", "4"},
	}
	for name, extra := range configs {
		path := filepath.Join(dir, name+".json")
		if code, _, errOut := run(osuMetricsArgs(t, path, extra...)...); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errOut)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(golden) {
			t.Errorf("%s: metrics.json differs from testdata/metrics_osu8.golden.json", name)
		}
	}
}

// TestPerfettoDeterministic pins the trace export: the same invocation
// produces byte-identical Perfetto JSON, and the document is well-formed
// enough to carry both protocol slices and counter tracks.
func TestPerfettoDeterministic(t *testing.T) {
	dir := t.TempDir()
	m := writeManifest(t, dir, "osu8.json", osu8Manifest)
	var traces [2][]byte
	for i := range traces {
		path := filepath.Join(dir, "trace"+string(rune('0'+i))+".json")
		args := []string{"run", "-perfetto", path, m}
		if code, _, errOut := run(args...); code != 0 {
			t.Fatalf("run %d: exit %d: %s", i, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = b
	}
	if string(traces[0]) != string(traces[1]) {
		t.Fatal("two identical runs produced different Perfetto traces")
	}
	s := string(traces[0])
	for _, want := range []string{`"traceEvents"`, `"displayTimeUnit": "ns"`, `"ph": "X"`, `"ph": "C"`} {
		if !strings.Contains(s, want) {
			t.Errorf("Perfetto trace missing %s", want)
		}
	}
}

// TestTraceSubcommand covers `repro trace`: summarizing a metrics.json
// written by a run, plus its flag validation.
func TestTraceSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if code, _, errOut := run(osuMetricsArgs(t, path)...); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	code, out, errOut := run("trace", "-top", "3", path)
	if code != 0 {
		t.Fatalf("trace: exit %d: %s", code, errOut)
	}
	for _, want := range []string{"osu-mcast-allgather", "fabric", "verbs", "busiest channels"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace summary missing %q in:\n%s", want, out)
		}
	}

	if code, _, _ := run("trace"); code != 2 {
		t.Errorf("trace without a path: exit %d, want 2", code)
	}
	if code, _, _ := run("trace", "-top", "0", path); code != 2 {
		t.Errorf("trace -top 0: exit %d, want 2", code)
	}
	if code, _, _ := run("trace", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("trace on a missing file: exit %d, want 1", code)
	}
}

// TestTelemetryDigestGate pins the exit-1 behaviour of a wrong
// telemetry.expect_sha256.
func TestTelemetryDigestGate(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	doc := `{
  "kind": "osu",
  "grid": {
    "algorithms": ["mcast-allgather"],
    "ops": ["allgather"],
    "nodes": [8],
    "sizes": [65536]
  },
  "osu": {"iters": 2},
  "telemetry": {
    "metrics": "` + filepath.Join(dir, "metrics.json") + `",
    "expect_sha256": "0000000000000000000000000000000000000000000000000000000000000000"
  }
}`
	if err := os.WriteFile(manifest, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := run("run", manifest)
	if code != 1 || !strings.Contains(errOut, "telemetry.expect_sha256") {
		t.Fatalf("wrong metrics digest: exit %d (%s), want 1 with a digest message", code, errOut)
	}
}
