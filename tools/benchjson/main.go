// Command benchjson converts `go test -bench -benchmem` output into the
// repository's structured sweep-report JSON (the BENCH_*.json trajectory
// format) and optionally gates chosen metrics against a committed baseline.
//
// CI runs the engine/fabric/collective perf benchmarks, pipes the text
// through benchjson to produce BENCH_perf.json, and fails the job when
// allocs/op regresses more than the tolerance over PERF_BASELINE.json.
// Only machine-independent metrics (allocation counts, simulated events
// per op) are suitable for gating; wall-clock metrics (ns/op, events/sec)
// are recorded for the trajectory but vary across runners. Any other
// custom unit a benchmark reports ("fork-speedup" -> fork_speedup) flows
// through the same pipeline as an informational metric: it appears in the
// trajectory but is gated only if named in -metric/-min-metric.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | \
//	  benchjson -out BENCH_perf.json -baseline PERF_BASELINE.json \
//	            -metric allocs_per_op -tol 0.20
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/sweep"
)

func main() {
	in := flag.String("in", "", "benchmark output to read (default stdin)")
	out := flag.String("out", "", "write the parsed report as JSON to this path")
	name := flag.String("name", "perf", "report name")
	baseline := flag.String("baseline", "", "baseline report to gate against")
	metrics := flag.String("metric", "allocs_per_op", "comma-separated metrics to gate")
	tol := flag.Float64("tol", 0.20, "relative regression tolerance for gated metrics")
	slack := flag.Float64("slack", 1, "absolute slack added on top of the relative tolerance (absorbs benchmem rounding)")
	minMetrics := flag.String("min-metric", "", "comma-separated metrics gated as floors: the run fails when a value drops below baseline*(1-min-tol)-min-slack (same-machine ratios like fork_speedup)")
	minTol := flag.Float64("min-tol", 0.20, "relative drop tolerance for -min-metric floors")
	minSlack := flag.Float64("min-slack", 0, "absolute slack subtracted below the relative floor")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	stop, err := cli.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatalf(2, "benchjson: %v", err)
	}
	defer stop()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf(2, "benchjson: %v", err)
		}
		defer f.Close()
		r = f
	}
	recs, err := parse(r)
	if err != nil {
		fatalf(1, "benchjson: %v", err)
	}
	if len(recs) == 0 {
		fatalf(1, "benchjson: no benchmark lines found")
	}
	rep := sweep.Report{Name: *name, Records: recs}
	if err := sweep.WriteFiles(rep, *out, ""); err != nil {
		fatalf(1, "benchjson: %v", err)
	}
	if err := sweep.WriteTable(os.Stdout, recs); err != nil {
		fatalf(1, "benchjson: %v", err)
	}
	if *baseline == "" {
		return
	}
	base, err := sweep.LoadFile(*baseline)
	if err != nil {
		fatalf(1, "benchjson: %v", err)
	}
	failed := gate(base, rep, strings.Split(*metrics, ","), *tol, *slack)
	if *minMetrics != "" {
		failed = minGate(base, rep, strings.Split(*minMetrics, ","), *minTol, *minSlack) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// fatalf prints to stderr and exits with the given code (2 invalid
// flags, 1 runtime failure), matching the repro exit-code convention.
func fatalf(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// parse extracts one Record per benchmark result line. A line looks like
//
//	BenchmarkFabricHop-8   30   231272 ns/op   8855383 hops/sec   109194 B/op   1099 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs — including any
// custom b.ReportMetric units.
func parse(r io.Reader) ([]sweep.Record, error) {
	var recs []sweep.Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		m := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			m[metricName(fields[i+1])] = v
		}
		recs = append(recs, sweep.Record{
			Spec:    sweep.Spec{Algorithm: name, Index: len(recs)},
			Metrics: m,
		})
	}
	return recs, sc.Err()
}

// metricName normalizes a go-bench unit into a metric identifier:
// "allocs/op" -> allocs_per_op, "events/sec" -> events_per_sec.
func metricName(unit string) string {
	unit = strings.ReplaceAll(unit, "/", "_per_")
	unit = strings.ReplaceAll(unit, "-", "_")
	return strings.ToLower(unit)
}

// gate compares the chosen metrics benchmark-by-benchmark (matched on
// name) and reports every regression beyond base*(1+tol)+slack. A
// benchmark present in the baseline but missing from the current run also
// fails: silently dropping a gated benchmark must not pass CI.
func gate(base, cur sweep.Report, metrics []string, tol, slack float64) bool {
	return gateBound(base, cur, metrics, func(bv, cv float64) (float64, bool) {
		limit := bv*(1+tol) + slack
		return limit, cv > limit
	})
}

// minGate is the floor-direction counterpart of gate, for throughput-style
// metrics where a DROP is the regression: fails when the current value
// falls below base*(1-tol)-slack.
func minGate(base, cur sweep.Report, metrics []string, tol, slack float64) bool {
	return gateBound(base, cur, metrics, func(bv, cv float64) (float64, bool) {
		limit := bv*(1-tol) - slack
		return limit, cv < limit
	})
}

// gateBound walks the baseline's benchmarks and applies a bound check to
// each gated metric; exceed reports the limit and whether (base, current)
// violates it.
func gateBound(base, cur sweep.Report, metrics []string, exceed func(bv, cv float64) (float64, bool)) (failed bool) {
	curByName := map[string]sweep.Record{}
	for _, r := range cur.Records {
		curByName[r.Spec.Algorithm] = r
	}
	for _, b := range base.Records {
		c, ok := curByName[b.Spec.Algorithm]
		if !ok {
			fmt.Printf("GATE FAIL %s: benchmark missing from current run\n", b.Spec.Algorithm)
			failed = true
			continue
		}
		for _, m := range metrics {
			m = strings.TrimSpace(m)
			bv, okB := b.Metrics[m]
			cv, okC := c.Metrics[m]
			if !okB {
				continue // this benchmark never had the metric; nothing to gate
			}
			if !okC {
				// The baseline gates this metric but the current run stopped
				// emitting it — losing a gate must not pass silently.
				fmt.Printf("GATE FAIL %s %s: metric missing from current run\n", b.Spec.Algorithm, m)
				failed = true
				continue
			}
			if limit, bad := exceed(bv, cv); bad {
				fmt.Printf("GATE FAIL %s %s: %.6g -> %.6g (limit %.6g)\n",
					b.Spec.Algorithm, m, bv, cv, limit)
				failed = true
			} else {
				fmt.Printf("gate ok   %s %s: %.6g -> %.6g (limit %.6g)\n",
					b.Spec.Algorithm, m, bv, cv, limit)
			}
		}
	}
	return failed
}
