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

// TestExitCodes is the table test over the unified flag-validation
// convention: exit 2 for anything rejected before the simulation starts,
// on every subcommand — including the output-path checks trafficbench
// historically lacked.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope", "out.json")
	small := smallOSUManifest(t, t.TempDir(), "small.json", "", "")
	// A manifest carrying the removed engine shard-count field.
	withShards := filepath.Join(t.TempDir(), "shards.json")
	if err := os.WriteFile(withShards, []byte(`{"kind": "osu", "shards": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
		err  string // substring expected on stderr ("" = don't check)
	}{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand"},
		{"help", []string{"help"}, 0, ""},
		{"bad flag", []string{"osu", "-no-such-flag"}, 2, ""},

		{"osu bad nodes", []string{"osu", "-nodes", "0"}, 2, "[1,188]"},
		{"osu bad iters", []string{"osu", "-iters", "0"}, 2, "-iters must be positive"},
		{"osu bad sizes", []string{"osu", "-sizes", "banana"}, 2, "bad size"},
		{"osu bad algo", []string{"osu", "-algo", "nope"}, 2, "unknown algorithm"},
		{"osu unregistered combo", []string{"osu", "-algo", "bruck", "-op", "broadcast"}, 2, "unknown algorithm"},
		{"osu bad json dir", []string{"osu", "-json", missing}, 2, "does not exist"},
		{"osu bad workers", []string{"osu", "-workers", "-2"}, 2, "-workers must be >= 0"},

		{"chaos bad scenario", []string{"chaos", "-scenarios", "hurricane"}, 2, "hurricane"},
		{"chaos bad json dir", []string{"chaos", "-json", missing}, 2, "does not exist"},

		{"train bad layers", []string{"train", "-layers", "0"}, 2, "-layers must be positive"},
		{"train bad workload", []string{"train", "-workloads", "nope"}, 2, "unknown workload"},
		{"train bad json dir", []string{"train", "-json", missing}, 2, "does not exist"},

		{"traffic bad nodes", []string{"traffic", "-nodes", "1"}, 2, "[2,188]"},
		{"traffic bad iters", []string{"traffic", "-iters", "0"}, 2, "-iters must be positive"},
		{"traffic bad json dir", []string{"traffic", "-json", missing}, 2, "does not exist"},
		{"traffic bad csv dir", []string{"traffic", "-csv", missing}, 2, "does not exist"},

		{"ag no fig", []string{"ag"}, 2, "exactly one figure"},
		{"ag bad fig", []string{"ag", "-fig", "12"}, 2, "exactly one figure"},
		{"ag bad json dir", []string{"ag", "-fig", "10", "-json", missing}, 2, "does not exist"},

		{"dpa nothing selected", []string{"dpa"}, 2, "figures, tables or all"},
		{"dpa bad fig", []string{"dpa", "-fig", "6"}, 2, "no figure 6"},
		{"dpa bad json dir", []string{"dpa", "-fig", "5", "-json", missing}, 2, "does not exist"},

		{"cost nothing selected", []string{"cost"}, 2, "figures, speedup, economics or all"},
		{"cost bad fig", []string{"cost", "-fig", "3"}, 2, "no figure 3"},
		{"cost bad json dir", []string{"cost", "-fig", "2", "-json", missing}, 2, "does not exist"},

		{"run no manifest", []string{"run"}, 2, "usage"},
		{"run missing file", []string{"run", filepath.Join(t.TempDir(), "absent.json")}, 2, ""},
		{"run shards flag", []string{"run", "-shards", "2", small}, 2, "flag provided but not defined: -shards"},
		{"run shards field", []string{"run", withShards}, 2, `unknown field "shards"`},
		{"validate no args", []string{"validate"}, 2, "usage"},
		{"list extra args", []string{"list", "x"}, 2, "usage"},
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
			Sizes:      manifest.Sizes{4096},
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
			Sizes:      manifest.Sizes{4096},
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
// manifests/pr.json` must reproduce the historical cmd/osu BENCH_pr.json
// bytes, whose digest is declared in the manifest itself. The twin
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
