package command

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// run invokes the dispatcher and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := Run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes is the table test over the exit-code convention: exit 2
// for anything rejected before the simulation starts — a bad flag, an
// unreadable or invalid manifest — on every subcommand.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope", "out.json")
	small := smallOSUManifest(t, dir, "small.json", "", "")
	bad := func(name, body string) string { return writeManifest(t, dir, name, body) }
	const osuGrid = `"kind": "osu", "grid": {"algorithms": ["mcast-allgather"], "nodes": [8], "sizes": [4096]}`
	seeded := bad("seeded.json", `{"kind": "dpa", "all": true, "seed": 1}`)
	cases := []struct {
		name string
		args []string
		want int
		err  string // substring expected on stderr ("" = don't check)
		once string // substring expected exactly once on stderr ("" = don't check)
	}{
		{"no args", nil, 2, "usage", ""},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand", ""},
		{"removed osu subcommand", []string{"osu", "-nodes", "8"}, 2, "unknown subcommand", ""},
		{"help", []string{"help"}, 0, "", ""},

		{"run bad flag", []string{"run", "-no-such-flag", small}, 2, "flag provided but not defined", ""},
		{"run removed telemetry flag", []string{"run", "-telemetry", small}, 2, "flag provided but not defined: -telemetry", ""},
		{"run bad json dir", []string{"run", "-json", missing, small}, 2, "does not exist", ""},
		{"run bad csv dir", []string{"run", "-csv", missing, small}, 2, "does not exist", ""},
		{"run bad workers", []string{"run", "-workers", "-2", small}, 2, "-workers must be >= 0", ""},
		{"run negative tol", []string{"run", "-tol", "-3", "-compare", small, small}, 2, "-tol must be >= 0", ""},
		{"run yaml manifest", []string{"run", bad("x.yaml", "kind: osu\n")}, 2, "unknown extension", ""},
		{"run string sizes", []string{"run", bad("strsizes.json",
			`{"kind": "osu", "grid": {"algorithms": ["mcast-allgather"], "nodes": [8], "sizes": "4096:65536"}}`)},
			2, "cannot unmarshal string", ""},

		{"osu nodes low", []string{"run", bad("osu-nodes.json",
			`{"kind": "osu", "grid": {"algorithms": ["mcast-allgather"], "nodes": [0], "sizes": [4096]}}`)},
			2, "[1,188]", ""},
		{"osu negative iters", []string{"run", bad("osu-iters.json", `{`+osuGrid+`, "osu": {"iters": -1}}`)},
			2, "osu.iters must be >= 0", ""},
		{"osu unknown algorithm", []string{"run", bad("osu-algo.json",
			`{"kind": "osu", "grid": {"algorithms": ["nope-allgather"], "nodes": [8], "sizes": [4096]}}`)},
			2, "unknown algorithm", ""},
		{"osu unregistered combo", []string{"run", bad("osu-combo.json",
			`{"kind": "osu", "grid": {"algorithms": ["bruck-broadcast"], "nodes": [8], "sizes": [4096]}}`)},
			2, "unknown algorithm", ""},

		{"chaos unknown scenario", []string{"run", bad("chaos-scn.json",
			`{"kind": "chaos", "grid": {"algorithms": ["mcast-allgather"], "scenarios": ["hurricane"], "nodes": [8], "sizes": [4096]}}`)},
			2, "hurricane", ""},

		{"train unknown workload", []string{"run", bad("train-wl.json",
			`{"kind": "train", "grid": {"workloads": ["nope"], "nodes": [8], "sizes": [4096]}}`)},
			2, "unknown workload", ""},
		{"train negative layers", []string{"run", bad("train-layers.json",
			`{"kind": "train", "grid": {"workloads": ["fsdp-ring"], "nodes": [8], "sizes": [4096]}, "train": {"layers": -1}}`)},
			2, "train.layers", ""},

		{"traffic nodes low", []string{"run", bad("traffic-nodes.json",
			`{"kind": "traffic", "grid": {"nodes": [1], "sizes": [65536]}}`)},
			2, "[2,188]", ""},
		{"traffic negative iters", []string{"run", bad("traffic-iters.json",
			`{"kind": "traffic", "grid": {"nodes": [8], "sizes": [65536]}, "traffic": {"iters": -1}}`)},
			2, "traffic.iters must be >= 0", ""},

		{"ag no figure", []string{"run", bad("ag-none.json", `{"kind": "ag"}`)}, 2, "exactly one figure", ""},
		{"ag figure 12", []string{"run", bad("ag-12.json", `{"kind": "ag", "figures": [12]}`)}, 2, "exactly one figure", ""},

		{"dpa nothing selected", []string{"run", bad("dpa-none.json", `{"kind": "dpa"}`)}, 2, "figures, tables or all", ""},
		{"dpa figure 6", []string{"run", bad("dpa-6.json", `{"kind": "dpa", "figures": [6]}`)}, 2, "no figure 6", ""},

		{"cost nothing selected", []string{"run", bad("cost-none.json", `{"kind": "cost"}`)}, 2, "figures, speedup, economics or all", ""},
		{"cost figure 3", []string{"run", bad("cost-3.json", `{"kind": "cost", "figures": [3]}`)}, 2, "no figure 3", ""},

		{"run no manifest", []string{"run"}, 2, "usage", ""},
		{"run missing file", []string{"run", filepath.Join(dir, "absent.json")}, 2, "", ""},
		{"run shards flag", []string{"run", "-shards", "2", small}, 2, "flag provided but not defined: -shards", ""},
		{"run shards field", []string{"run", bad("shards.json", `{"kind": "osu", "shards": 4}`)}, 2, `unknown field "shards"`, ""},
		{"validate no args", []string{"validate"}, 2, "usage", ""},
		{"validate names the path once", []string{"validate", seeded}, 2, "does not consume seed", seeded},
		{"list extra args", []string{"list", "x"}, 2, "usage", ""},
	}
	for _, c := range cases {
		code, _, stderr := run(c.args...)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, stderr)
			continue
		}
		if c.err != "" && !strings.Contains(stderr, c.err) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, stderr, c.err)
		}
		if c.once != "" && strings.Count(stderr, c.once) != 1 {
			t.Errorf("%s: stderr %q names %q %d times, want once", c.name, stderr, c.once, strings.Count(stderr, c.once))
		}
	}
}

// TestCompareNeedsSharedPoints pins the -compare guard: a baseline that
// shares no point with the run (an unrelated report, or a file that is
// not a report at all) fails with exit 1 naming the baseline, instead of
// passing because nothing was compared. A baseline of the run's own
// output is the passing control.
func TestCompareNeedsSharedPoints(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BASE.json")
	m4 := smallOSUManifest(t, dir, "m4.json", "", "")
	if code, _, stderr := run("run", "-json", base, m4); code != 0 {
		t.Fatalf("baseline run: exit %d, stderr %s", code, stderr)
	}
	m8 := writeManifest(t, dir, "m8.json",
		`{"kind": "osu", "grid": {"algorithms": ["mcast-allgather"], "nodes": [8], "sizes": [4096]}, "osu": {"iters": 1}}`)
	for _, c := range []struct{ name, manifest, baseline string }{
		{"unrelated report", m8, base},
		{"manifest as baseline", m4, m8},
	} {
		code, _, stderr := run("run", "-compare", c.baseline, c.manifest)
		if code != 1 || !strings.Contains(stderr, c.baseline+" shares no point") {
			t.Errorf("%s: exit %d, stderr %q; want 1 naming the baseline", c.name, code, stderr)
		}
	}
	code, stdout, stderr := run("run", "-compare", base, m4)
	if code != 0 || !strings.Contains(stdout, "no metric moved beyond tolerance") {
		t.Errorf("self-compare: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

func TestListAndHelp(t *testing.T) {
	code, out, _ := run("list")
	if code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	for _, want := range []string{"kinds:", "mcast-allgather", "quiet", "fsdp-ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	code, out, _ = run("help")
	if code != 0 || !strings.Contains(out, "byte-identical") {
		t.Fatalf("help: exit %d, out %q", code, out)
	}
}

func TestValidateSubcommand(t *testing.T) {
	good := filepath.Join("..", "..", "manifests", "pr.json")
	code, out, _ := run("validate", good)
	if code != 0 || !strings.Contains(out, "ok "+good) {
		t.Fatalf("validate %s: exit %d, out %q", good, code, out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"kind":"dpa","all":true,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("validate", good, bad)
	if code != 2 || !strings.Contains(stderr, "1 of 2 manifests invalid") {
		t.Fatalf("validate with one bad manifest: exit %d, stderr %q", code, stderr)
	}
}

// TestValidateDirectories covers the directory form of `repro validate`:
// a directory argument expands to the manifests inside it, an empty
// directory is an error, and the whole shipping tree — including the
// determinism twins that share report names by design — validates clean.
func TestValidateDirectories(t *testing.T) {
	tree := filepath.Join("..", "..", "manifests")
	code, out, stderr := run("validate", tree)
	if code != 0 {
		t.Fatalf("validate %s: exit %d, stderr %q", tree, code, stderr)
	}
	for _, want := range []string{
		"ok " + filepath.Join(tree, "pr.json"),
		"ok " + filepath.Join(tree, "chaos-warm.json"),
		"ok " + filepath.Join(tree, "telemetry-w1.json"),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("directory expansion missing %q in:\n%s", want, out)
		}
	}

	if code, _, stderr := run("validate", t.TempDir()); code != 2 ||
		!strings.Contains(stderr, "directory holds no manifests") {
		t.Errorf("empty directory: exit %d, stderr %q", code, stderr)
	}
}

// TestValidateDuplicates pins the two rejection rules of the batch form:
// two manifests may never declare the same output basename (a -o DIR
// batch would silently overwrite), and manifests without any outputs must
// carry distinct report names.
func TestValidateDuplicates(t *testing.T) {
	dir := t.TempDir()
	a := smallOSUManifest(t, dir, "a.json", "SAME.json", "")
	b := smallOSUManifest(t, dir, "b.json", "SAME.json", "")
	code, _, stderr := run("validate", a, b)
	if code != 2 || !strings.Contains(stderr, `duplicate output artifact "SAME.json"`) {
		t.Errorf("colliding artifact: exit %d, stderr %q", code, stderr)
	}

	// Same grid, no outputs: both derive the name osu-mcast-allgather.
	bare1 := smallOSUManifest(t, dir, "bare1.json", "", "")
	bare2 := smallOSUManifest(t, dir, "bare2.json", "", "")
	code, _, stderr = run("validate", bare1, bare2)
	if code != 2 || !strings.Contains(stderr, "duplicate manifest name") {
		t.Errorf("duplicate bare name: exit %d, stderr %q", code, stderr)
	}

	// Shared name is fine once each declares its own artifact — the
	// determinism-twin pattern.
	c := smallOSUManifest(t, dir, "c.json", "C.json", "")
	d := smallOSUManifest(t, dir, "d.json", "D.json", "")
	if code, _, stderr := run("validate", c, d); code != 0 {
		t.Errorf("twins with disjoint artifacts: exit %d, stderr %q", code, stderr)
	}
}

// TestManifestDigests runs the three shipping manifest families that
// exercise distinct stacks — pr (OSU collectives), chaos (scenario kernel
// with its quiet anchor), train (workload DAGs) — once each. Each manifest
// declares its expect.sha256, so a zero exit IS the byte-identity
// assertion; the digest-confirmation line is checked anyway so a manifest
// that silently loses its expect block fails loudly.
func TestManifestDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three multi-second sweeps; skipped with -short")
	}
	for _, name := range []string{"pr.json", "chaos.json", "train.json"} {
		src, err := filepath.Abs(filepath.Join("..", "..", "manifests", name))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := run("run", "-o", t.TempDir(), src)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %s", name, code, stderr)
		}
		if !strings.Contains(stdout, "digest matches expect.sha256") {
			t.Fatalf("%s: stdout does not confirm the digest:\n%s", name, stdout)
		}
	}
}

// smallOSUManifest writes a fast single-point osu manifest to dir and
// returns its path. json names the declared output file (relative paths
// land in the process working directory unless redirected with -o);
// digest pins expect.sha256 when non-empty.
func smallOSUManifest(t *testing.T, dir, name, json, digest string) string {
	t.Helper()
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{"mcast-allgather"},
			Nodes:      []int{4},
			Sizes:      []int{4096},
		},
		OSU:    &manifest.OSUSpec{Iters: 1},
		Output: manifest.Output{JSON: json},
	}
	if digest != "" {
		m.Expect = &manifest.Expect{SHA256: digest}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunMultiManifest is the table test over the batch form of `repro
// run`: several manifests execute in order, -o redirects their declared
// outputs into one directory, per-file output flags are rejected as
// ambiguous, and the batch stops at the first failing manifest.
func TestRunMultiManifest(t *testing.T) {
	dir := t.TempDir()
	a := smallOSUManifest(t, dir, "a.json", "A.json", "")
	b := smallOSUManifest(t, dir, "b.json", "B.json", "")
	bad := smallOSUManifest(t, dir, "bad.json", "BAD.json", strings.Repeat("0", 64))

	cases := []struct {
		name    string
		args    []string
		want    int
		err     string   // substring expected on stderr
		present []string // files expected under out/ afterwards
		absent  []string
	}{
		{"batch with -o", []string{"run", "-o", filepath.Join(dir, "out"), a, b}, 0, "",
			[]string{"A.json", "B.json"}, nil},
		{"single with -o", []string{"run", "-o", filepath.Join(dir, "solo"), a}, 0, "",
			nil, nil},
		{"json flag ambiguous", []string{"run", "-json", filepath.Join(dir, "x.json"), a, b}, 2,
			"-json names one output file", nil, nil},
		{"csv flag ambiguous", []string{"run", "-csv", filepath.Join(dir, "x.csv"), a, b}, 2,
			"-csv names one output file", nil, nil},
		{"trace flag ambiguous", []string{"run", "-trace", filepath.Join(dir, "x.txt"), a, b}, 2,
			"-trace names one output file", nil, nil},
		{"stops at first failure", []string{"run", "-o", filepath.Join(dir, "stop"), bad, b}, 1,
			"does not match expect.sha256", []string{}, []string{"B.json"}},
	}
	for _, c := range cases {
		code, stdout, stderr := run(c.args...)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, stderr)
			continue
		}
		if c.err != "" && !strings.Contains(stderr, c.err) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, stderr, c.err)
		}
		outDir := c.args[2] // every case passes a value right after the first flag
		for _, f := range c.present {
			if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
				t.Errorf("%s: expected output %s: %v", c.name, f, err)
			}
		}
		for _, f := range c.absent {
			if _, err := os.Stat(filepath.Join(outDir, f)); err == nil {
				t.Errorf("%s: output %s exists but the batch should have stopped before it", c.name, f)
			}
		}
		if code == 0 && len(c.present) > 0 && !strings.Contains(stdout, "== "+a) {
			t.Errorf("%s: stdout missing per-manifest header:\n%s", c.name, stdout)
		}
	}
	// A batch header is noise for the single-manifest form.
	if _, stdout, _ := run("run", "-o", filepath.Join(dir, "solo2"), a); strings.Contains(stdout, "== ") {
		t.Errorf("single manifest run prints a batch header:\n%s", stdout)
	}
}

// TestDigestMismatchExitsOne pins the runtime-failure exit code: a run
// whose bytes do not match the declared expect.sha256 fails with 1.
func TestDigestMismatchExitsOne(t *testing.T) {
	tmp := t.TempDir()
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{"mcast-allgather"},
			Nodes:      []int{4},
			Sizes:      []int{4096},
		},
		OSU:    &manifest.OSUSpec{Iters: 1},
		Expect: &manifest.Expect{SHA256: strings.Repeat("0", 64)},
	}
	path := filepath.Join(tmp, "m.json")
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("run", path)
	if code != 1 || !strings.Contains(stderr, "does not match expect.sha256") {
		t.Fatalf("digest mismatch: exit %d, stderr %q", code, stderr)
	}
}

// TestGoldenPRManifest pins the CI pr leg end to end: `repro run
// manifests/pr.json` must reproduce the BENCH_pr.json bytes whose digest
// is declared in the manifest itself. The twin
// manifest carries the same digest, so worker-count determinism rides on
// the same pin.
func TestGoldenPRManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
	src, err := filepath.Abs(filepath.Join("..", "..", "manifests", "pr.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Expect == nil {
		t.Fatal("manifests/pr.json declares no expect.sha256")
	}
	out := filepath.Join(t.TempDir(), "BENCH_pr.json")
	code, stdout, stderr := run("run", "-json", out, src)
	if code != 0 {
		t.Fatalf("repro run: exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "digest matches expect.sha256") {
		t.Fatalf("stdout does not confirm the digest:\n%s", stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != m.Expect.SHA256 {
		t.Fatalf("BENCH_pr.json digest %s, manifest expects %s", got, m.Expect.SHA256)
	}
}
