// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public layers of the simulator (the repro
// facade, the algorithm registry, the workload engine and the warm-start
// sweep), checks that every operation produced correct output, and prints
// its metrics by name with units. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end host costs (wall time per
// measured unit, set-up time, peak memory) of an untraced run. With
// -trace 1 the command makes an untraced pass and then a traced pass over
// the same number of units: the traced pass records host-time spans around
// the benchmark's calls into each layer (written as a Perfetto-loadable
// JSON file) and a CPU profile attributed to the internal packages, and
// the metrics are the per-layer numbers. README.md maps every per-layer
// metric to the end-to-end metric and workload it should move.
//
//	go run . -workload ag188 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 20, "host seconds the measured section runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	outDir := fs.String("out", ".bench_build", "directory for the span file and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWL, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -seed >= 1, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{
		name:    *name,
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		newWL:   newWL,
		out:     stdout,
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = b.tracedRun(*outDir)
	} else {
		res, err = b.untracedRun()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// result is the machine-readable last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds one invocation's settings and its op accounting.
type bench struct {
	name    string
	seed    uint64
	measure time.Duration
	newWL   func(seed uint64, traced bool) workload
	out     io.Writer

	attempted, failed int
}

// setupRepeats is how many times a workload whose measured units share one
// built stack (ag188) builds it in an untraced run: set-up time is the
// median of the repeats.
const setupRepeats = 3

// minUnits is the fewest measured units a run makes, even past its
// deadline, so every median has a middle and determinism has a pair.
const minUnits = 3

// pass is what one measured section produced.
type pass struct {
	setups []time.Duration // one per stack build
	units  []unit
	warm   []simStats // warm-up ops the set-ups ran
	rt     runtimeDelta
	rssMB  float64 // peak resident set after unit minUnits
}

// measurePass builds the workload's stack, then runs measured units until
// the deadline has passed and at least minUnits ran, or exactly count
// units when count > 0. Then it rebuilds the stack repeats-1 more times
// for further set-up samples.
//
// The peak resident set is read after unit minUnits, which every run
// reaches, so it always covers the same work. The stacks allocate large
// buffers the simulation never writes: they stay non-resident in fresh
// memory but become resident when a later unit or build gets them from
// freed memory, so a peak read at the end would grow with the number of
// units a run happened to fit in its time.
func (b *bench) measurePass(w workload, tr *tracer, repeats, count int) (pass, error) {
	var p pass
	build := func() error {
		d, warm, err := w.prepare(tr)
		if err != nil {
			b.fail()
			return fmt.Errorf("set-up: %w", err)
		}
		if d > 0 {
			p.setups = append(p.setups, d)
		}
		if warm != nil {
			p.warm = append(p.warm, *warm)
		}
		return nil
	}
	if err := build(); err != nil {
		return p, err
	}
	before := readRuntime()
	start := time.Now()
	for i := 0; ; i++ {
		if count > 0 && i == count {
			break
		}
		if count == 0 && i >= minUnits && time.Since(start) >= b.measure {
			break
		}
		u, err := w.unit(tr)
		b.attempted += u.attempted
		b.failed += u.failed
		if err != nil {
			if u.failed == 0 {
				b.fail()
			}
			return p, fmt.Errorf("unit %d: %w", i, err)
		}
		if u.setup > 0 {
			p.setups = append(p.setups, u.setup)
		}
		p.units = append(p.units, u)
		if i == minUnits-1 {
			p.rssMB = maxRSSMB()
		}
	}
	p.rt = readRuntime().sub(before)
	for i := 1; i < repeats; i++ {
		w.release()
		freeMemory()
		if err := build(); err != nil {
			return p, err
		}
	}
	w.release()
	freeMemory()
	return p, nil
}

func (b *bench) fail() { b.attempted++; b.failed++ }

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun() (result, error) {
	res := result{Metrics: map[string]metric{}}
	w := b.newWL(b.seed, false)
	p, err := b.measurePass(w, nil, w.setupRepeats(), 0)
	if err != nil {
		return b.finish(res), err
	}
	if err := checkDeterminism(p.units, nil, p.warm); err != nil {
		return b.finish(res), err
	}
	// The payload check runs last: memory it touches and frees would be
	// reused by the workload's stack and inflate the measured peak.
	if err := b.payloadCheck(); err != nil {
		return b.finish(res), err
	}
	walls := unitWalls(p.units)
	e2e := map[string]metric{
		"wall_s":     {median(walls), "s"},
		"setup_s":    {median(durSeconds(p.setups)), "s"},
		"max_rss_mb": {p.rssMB, "MB"},
	}
	first := p.units[0].stats
	wireNote := "per unit, deterministic"
	if !first.hasWire {
		wireNote = "-trace 1 only: the sweep exposes wire bytes only through the program's telemetry"
	}
	b.table("end-to-end (untraced)", []row{
		{"wall_s", e2e["wall_s"], fmt.Sprintf("median of %d units, p25 %.4f, p75 %.4f", len(walls), quartile(walls, 1), quartile(walls, 3))},
		{"setup_s", e2e["setup_s"], fmt.Sprintf("median of %d set-ups", len(p.setups))},
		{"max_rss_mb", e2e["max_rss_mb"], fmt.Sprintf("peak resident set through set-up and the first %d units", minUnits)},
		{"sim_us", metric{first.simUs, "virtual_us"}, "per unit, deterministic"},
		{"wire_mb", metric{first.wireMB(), "MB"}, wireNote},
		{"ops_failed_frac", metric{b.failedFrac(), "frac"}, fmt.Sprintf("%d of %d ops", b.failed, b.attempted)},
	})
	fmt.Fprintf(b.out, "determinism digest: %s\n", digest(first))
	res.Metrics = e2e
	return b.finish(res), nil
}

// tracedRun measures the per-layer metrics: an untraced pass for the
// deterministic counters and the overhead baseline, then a traced pass over
// the same number of units with spans and a CPU profile.
func (b *bench) tracedRun(outDir string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return b.finish(res), err
	}
	plain, err := b.measurePass(b.newWL(b.seed, false), nil, 1, 0)
	if err != nil {
		return b.finish(res), err
	}

	tw := b.newWL(b.seed, true)
	tr := newTracer()
	profPath := filepath.Join(outDir, "perfbench-"+b.name+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return b.finish(res), err
	}
	root := tr.begin("perfbench " + b.name)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return b.finish(res), err
	}
	traced, terr := b.measurePass(tw, tr, 1, len(plain.units))
	pprof.StopCPUProfile()
	tr.end(root)
	if err := pf.Close(); err != nil && terr == nil {
		terr = err
	}
	if terr != nil {
		return b.finish(res), terr
	}
	spanPath := filepath.Join(outDir, "perfbench-"+b.name+".trace.json")
	if err := tr.writePerfetto(spanPath); err != nil {
		return b.finish(res), err
	}
	if err := checkDeterminism(plain.units, traced.units, append(plain.warm, traced.warm...)); err != nil {
		return b.finish(res), err
	}
	shares, err := attributeProfile(profPath)
	if err != nil {
		return b.finish(res), err
	}
	if err := b.payloadCheck(); err != nil {
		return b.finish(res), err
	}

	var notes map[string]string
	res.Metrics, notes = b.layerMetrics(plain, traced, shares)
	rows := make([]row, 0, len(res.Metrics))
	for _, name := range perLayerNames() {
		rows = append(rows, row{name, res.Metrics[name], notes[name]})
	}
	b.table("per-layer (deterministic counts per unit from the untraced pass; host_share from the traced pass)", rows)
	if rows := plain.units[0].stats.pointRows; len(rows) > 0 {
		fmt.Fprintf(b.out, "  sweep points (untraced pass):\n  %-16s %-15s %20s %12s %10s %8s %9s %s\n",
			"algorithm", "scenario", "seed", "sim_us", "events", "drops", "recovered", "partitioned")
		for _, r := range rows {
			fmt.Fprintf(b.out, "  %-16s %-15s %20d %12.3f %10.0f %8.0f %9.0f %v\n", r.spec.Algorithm,
				r.spec.Scenario, r.spec.Seed, r.simUs, r.events, r.drops, r.recovered, r.partitioned)
		}
	}
	fmt.Fprintf(b.out, "determinism digest: %s\nspans: %s (%d spans)\nprofile: %s\n",
		digest(plain.units[0].stats), spanPath, tr.len(), profPath)
	return b.finish(res), nil
}

// finish fills the op accounting; the run is correct when no op failed.
func (b *bench) finish(res result) result {
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	return res
}

func (b *bench) failedFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// row is one line of the human-readable metric table.
type row struct {
	name string
	m    metric
	note string
}

func (b *bench) table(title string, rows []row) {
	fmt.Fprintf(b.out, "perfbench %s seed=%d: %s\n", b.name, b.seed, title)
	for _, r := range rows {
		fmt.Fprintf(b.out, "  %-34s %16.6g %-11s %s\n", r.name, r.m.Value, r.m.Unit, r.note)
	}
}

// --- host measurements -------------------------------------------------------------

// freeMemory returns a released stack's heap to the OS, so a later build
// does not stack its peak on top of the previous one.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func unitWalls(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wall.Seconds()
	}
	return out
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quartile(xs, 2) }

// quartile returns the q-th quartile (q in 1..3) by linear interpolation
// between closest ranks.
func quartile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(len(s)-1) * float64(q) / 4
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
