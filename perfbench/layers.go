package main

import (
	"crypto/sha256"
	"fmt"
	"runtime/metrics"
	"time"
)

// perLayerUnits lists every per-layer metric with its unit, in print order.
// Counts are per measured unit (one op, one step of each preset, or one
// sweep pass); "virtual_us" is simulated time, not host time.
var perLayerUnits = []struct{ name, unit string }{
	{"sim_us", "virtual_us"},
	{"wire_mb", "MB"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.pool_reuse_frac", "frac"},
	{"fabric.packets", "count"},
	{"fabric.drops", "count"},
	{"fabric.max_backlog_us", "virtual_us"},
	{"fabric.partitioned", "frac"},
	{"verbs.retransmits", "count"},
	{"verbs.rnr_drops", "count"},
	{"verbs.uc_dropped", "count"},
	{"core.barrier_us", "virtual_us"},
	{"core.mcast_us", "virtual_us"},
	{"core.final_us", "virtual_us"},
	{"core.recovered_chunks", "count"},
	{"registry.new_s", "s"},
	{"registry.run_ms.p50", "ms"},
	{"workload.step_us.fsdp-ring", "virtual_us"},
	{"workload.step_us.fsdp-inc", "virtual_us"},
	{"workload.overlap_frac.fsdp-ring", "frac"},
	{"workload.overlap_frac.fsdp-inc", "frac"},
	{"workload.exposed_us.fsdp-ring", "virtual_us"},
	{"workload.exposed_us.fsdp-inc", "virtual_us"},
	{"scenario.perturbs", "count"},
	{"scenario.restores", "count"},
	{"scenario.bg_mb", "MB"},
	{"sweep.points", "count"},
	{"sweep.builds", "count"},
	{"sweep.cold_points", "count"},
	{"sweep.point_ms.p50", "ms"},
	{"sweep.point_ms.p75", "ms"},
	{"sweep.worker_busy_frac", "frac"},
	{"go.alloc_mb", "MB"},
	{"go.allocs_per_event", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// perLayerNames returns every per-layer metric name: the table above plus
// one host_share per attributed layer.
func perLayerNames() []string {
	names := make([]string, 0, len(perLayerUnits)+len(shareLayers)+2)
	for _, m := range perLayerUnits {
		names = append(names, m.name)
	}
	for _, l := range append(append([]string(nil), shareLayers...), "gc", "unattributed") {
		names = append(names, "host_share."+l)
	}
	return names
}

// layerMetrics derives the per-layer metrics. Deterministic counts come
// from the untraced pass; counters only the program's telemetry exposes
// come from the traced pass (notes says which); host shares come from the
// traced pass's CPU profile.
func (b *bench) layerMetrics(plain, traced pass, shares map[string]float64) (map[string]metric, map[string]string) {
	st := plain.units[0].stats
	tst := traced.units[0].stats
	notes := map[string]string{}
	fromTraced := func(names ...string) {
		for _, n := range names {
			notes[n] = "traced pass, program telemetry on"
		}
	}
	if !st.hasWire && tst.hasWire {
		st.wireBytes, st.hasWire = tst.wireBytes, true
		fromTraced("wire_mb")
	}
	if !st.hasPackets && tst.hasPackets {
		st.packets, st.maxBacklog = tst.packets, tst.maxBacklog
		fromTraced("fabric.packets", "fabric.max_backlog_us")
	}
	if !st.hasVerbs && tst.hasVerbs {
		st.retransmits, st.rnrDrops, st.ucDropped = tst.retransmits, tst.rnrDrops, tst.ucDropped
		fromTraced("verbs.retransmits", "verbs.rnr_drops", "verbs.uc_dropped")
	}
	if !st.hasPool {
		notes["sim.pool_reuse_frac"] = "not exported by the sweep"
	}

	n := float64(len(plain.units))
	wall := median(unitWalls(plain.units))
	v := map[string]float64{
		"sim_us":                st.simUs,
		"wire_mb":               st.wireMB(),
		"sim.events":            float64(st.events),
		"fabric.packets":        float64(st.packets),
		"fabric.drops":          float64(st.drops),
		"fabric.max_backlog_us": st.maxBacklog.Micros(),
		"fabric.partitioned":    st.partitioned,
		"verbs.retransmits":     float64(st.retransmits),
		"verbs.rnr_drops":       float64(st.rnrDrops),
		"verbs.uc_dropped":      float64(st.ucDropped),
		"core.barrier_us":       st.barrier.Micros(),
		"core.mcast_us":         st.mcast.Micros(),
		"core.final_us":         st.final.Micros(),
		"core.recovered_chunks": float64(st.recovered),
		"scenario.perturbs":     float64(st.perturbs),
		"scenario.restores":     float64(st.restores),
		"scenario.bg_mb":        float64(st.bgBytes) / 1e6,
		"sweep.points":          float64(st.points),
		"sweep.cold_points":     float64(st.cold),
		"go.alloc_mb":           plain.rt.allocBytes / n / 1e6,
		"trace.overhead_frac":   median(unitWalls(traced.units))/wall - 1,
	}
	if wall > 0 {
		v["sim.events_per_s"] = float64(st.events) / wall
	}
	if st.hasPool && st.scheduled > 0 {
		v["sim.pool_reuse_frac"] = float64(st.recycled) / float64(st.scheduled)
	}
	if st.events > 0 {
		v["go.allocs_per_event"] = plain.rt.allocObjects / (n * float64(st.events))
	}
	if plain.rt.totalCPU > 0 {
		v["go.gc_cpu_frac"] = plain.rt.gcCPU / plain.rt.totalCPU
	}
	for _, p := range fsdpPresets {
		v["workload.step_us."+p] = st.stepUs[p]
		v["workload.overlap_frac."+p] = st.overlap[p]
		v["workload.exposed_us."+p] = st.exposedUs[p]
	}
	var runMs, pointMs, builds []float64
	var busy, sweepWall time.Duration
	for _, u := range plain.units {
		runMs = append(runMs, u.stats.runMs...)
		pointMs = append(pointMs, u.stats.pointMs...)
		builds = append(builds, float64(u.stats.builds))
		if u.stats.points > 0 {
			busy += u.stats.busy
			sweepWall += u.wall * chaosWorkers
		}
	}
	v["registry.run_ms.p50"] = median(runMs)
	if len(plain.warm) > 0 {
		v["registry.new_s"] = plain.warm[0].registryNew.Seconds()
	}
	v["sweep.builds"] = median(builds)
	v["sweep.point_ms.p50"] = quartile(pointMs, 2)
	v["sweep.point_ms.p75"] = quartile(pointMs, 3)
	if sweepWall > 0 {
		v["sweep.worker_busy_frac"] = float64(busy) / float64(sweepWall)
	}
	for l, s := range shares {
		v["host_share."+l] = s
	}

	out := make(map[string]metric, len(v))
	for _, m := range perLayerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
	for l := range shares {
		out["host_share."+l] = metric{v["host_share."+l], "frac"}
	}
	return out, notes
}

// detKey is the part of a unit's statistics that must repeat exactly for a
// seed: a change that only speeds up the simulator leaves all of it alone.
type detKey struct {
	simUs                 float64
	wire                  uint64
	events                uint64
	barrier, mcast, final int64
	recovered             int
}

func keyOf(s simStats) detKey {
	k := detKey{simUs: s.simUs, events: s.events, recovered: s.recovered,
		barrier: int64(s.barrier), mcast: int64(s.mcast), final: int64(s.final)}
	if s.hasWire {
		k.wire = s.wireBytes
	}
	return k
}

// checkDeterminism requires every untraced unit and warm-up op to repeat
// the first unit's statistics exactly, and every traced unit to match them
// too. A traced unit that ran with the program's telemetry on executes
// extra sampler events and no partitioning, so only its virtual times,
// recovery counts and (when both passes have it) wire bytes must match.
func checkDeterminism(plain, traced []unit, setups []simStats) error {
	ref := keyOf(plain[0].stats)
	for i, u := range plain {
		if k := keyOf(u.stats); k != ref {
			return fmt.Errorf("determinism: unit %d gave %+v, unit 0 gave %+v", i, k, ref)
		}
	}
	for i, s := range setups {
		if k := keyOf(s); k != ref {
			return fmt.Errorf("determinism: warm-up op %d gave %+v, measured ops gave %+v", i, k, ref)
		}
	}
	for i, u := range traced {
		k := keyOf(u.stats)
		if u.stats.telemetryOn {
			k.events = ref.events
		}
		if !plain[0].stats.hasWire {
			k.wire = ref.wire
		}
		if k != ref {
			return fmt.Errorf("determinism: traced unit %d gave %+v, untraced gave %+v", i, k, ref)
		}
		if t0 := keyOf(traced[0].stats); keyOf(u.stats) != t0 {
			return fmt.Errorf("determinism: traced unit %d gave %+v, traced unit 0 gave %+v", i, keyOf(u.stats), t0)
		}
	}
	return nil
}

// digest fingerprints a unit's deterministic statistics, so two runs of a
// seed can be compared from their printed output.
func digest(s simStats) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", keyOf(s)))))[:16]
}

// runtimeDelta is what the Go runtime spent over a measured section.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{val(0), val(1), val(2), val(3)}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocBytes - o.allocBytes, r.allocObjects - o.allocObjects,
		r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}
