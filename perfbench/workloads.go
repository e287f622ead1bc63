package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// workload is one benchmark workload: a stack the benchmark builds through
// the public layers, and a measured unit it runs on that stack.
type workload interface {
	// setupRepeats is how many times an untraced run calls prepare: once
	// before the measured units, the rest after them for more samples.
	setupRepeats() int
	// prepare builds the workload's stack and runs its warm-up op, if it
	// has one. It returns the host time it took and the warm-up op's
	// statistics, which must match the measured units' (nil without a
	// warm-up op).
	prepare(tr *tracer) (time.Duration, *simStats, error)
	// unit runs one measured unit.
	unit(tr *tracer) (unit, error)
	// release drops the built stack.
	release()
}

// unit is one measured unit: an op (ag188), one step of each FSDP preset
// (fsdp-step) or one pass over the sweep grid (chaos-sweep).
type unit struct {
	wall      time.Duration // measured host time
	setup     time.Duration // host time of builds made for this unit
	attempted int
	failed    int
	stats     simStats
}

// simStats are a unit's statistics. The fields before registryNew describe
// the simulated system and are deterministic for a seed; the rest are host
// times, sweep counts and the per-point table.
type simStats struct {
	simUs     float64 // virtual µs of the unit's ops, steps or points
	wireBytes uint64  // bytes on the wire (Fabric.TotalWireBytes)
	hasWire   bool
	events    uint64 // engine events executed
	scheduled uint64
	recycled  uint64
	hasPool   bool
	// telemetryOn is set when the program's own telemetry was enabled, which
	// disables fabric partitioning and adds sampler events: events and
	// pool counts then differ from an untraced unit; virtual times do not.
	telemetryOn bool

	packets, drops uint64
	hasPackets     bool
	maxBacklog     sim.Time
	partitioned    float64 // share of the unit's fabrics that ran partitioned

	retransmits, rnrDrops, ucDropped uint64
	hasVerbs                         bool

	barrier, mcast, final sim.Time // Figure-10 breakdown, max over ranks, summed over ops
	recovered             int

	stepUs, overlap, exposedUs map[string]float64

	perturbs, restores int
	bgBytes            uint64

	registryNew time.Duration
	runMs       []float64

	points, builds, cold int
	pointMs              []float64
	pointRows            []pointRow
	busy                 time.Duration
}

func (s simStats) wireMB() float64 { return float64(s.wireBytes) / 1e6 }

// addCore adds one result's Figure-10 breakdown and recovery count.
func (s *simStats) addCore(res *collective.Result) {
	var bar, mc, fin sim.Time
	for _, r := range res.PerRank {
		bar, mc, fin = maxTime(bar, r.BarrierTime), maxTime(mc, r.McastTime), maxTime(fin, r.FinalTime)
		s.recovered += r.Recovered
	}
	s.barrier += bar
	s.mcast += mc
	s.final += fin
}

func maxTime(a, b sim.Time) sim.Time {
	if b > a {
		return b
	}
	return a
}

// checkAllgather verifies that every rank received (ranks-1)*bytes.
func checkAllgather(res *collective.Result, bytes int) error {
	want := (res.Ranks - 1) * bytes
	if len(res.PerRank) == 0 {
		if res.RecvBytes != want {
			return fmt.Errorf("per-rank received %d bytes, want %d", res.RecvBytes, want)
		}
		return nil
	}
	if len(res.PerRank) != res.Ranks {
		return fmt.Errorf("%d per-rank entries for %d ranks", len(res.PerRank), res.Ranks)
	}
	for _, r := range res.PerRank {
		if r.BytesReceived != want {
			return fmt.Errorf("rank %d received %d bytes, want %d", r.Rank, r.BytesReceived, want)
		}
	}
	return nil
}

// hostCounters is a snapshot of one system's cumulative counters, so a unit
// reports deltas.
type hostCounters struct {
	events, scheduled, recycled uint64
	wire, packets, drops        uint64
	retx, rnr, uc               uint64
}

func readCounters(sys *repro.System) hostCounters {
	c := hostCounters{
		events: sys.Engine.Executed, scheduled: sys.Engine.Scheduled, recycled: sys.Engine.Recycled,
		wire: sys.Fabric.TotalWireBytes(), drops: sys.Fabric.TotalDropped,
	}
	for i := 0; i < sys.Fabric.NumChannels(); i++ {
		c.packets += sys.Fabric.PortStatsAt(fabric.ChannelID(i)).Packets
	}
	// The verbs counters live in the per-host contexts; the cluster exports
	// them into a registry the benchmark owns.
	reg := telemetry.New(telemetry.Config{})
	sys.Cluster.CollectTelemetry(reg)
	c.retx = reg.Counter("verbs", "retransmits", "", telemetry.Stable).Value()
	c.rnr = reg.Counter("verbs", "rnr_drops", "", telemetry.Stable).Value()
	c.uc = reg.Counter("verbs", "uc_msg_dropped", "", telemetry.Stable).Value()
	return c
}

// addDelta adds the counters a system accumulated since before.
func (s *simStats) addDelta(sys *repro.System, before hostCounters) {
	after := readCounters(sys)
	s.events += after.events - before.events
	s.scheduled += after.scheduled - before.scheduled
	s.recycled += after.recycled - before.recycled
	s.wireBytes += after.wire - before.wire
	s.packets += after.packets - before.packets
	s.drops += after.drops - before.drops
	s.retransmits += after.retx - before.retx
	s.rnrDrops += after.rnr - before.rnr
	s.ucDropped += after.uc - before.uc
	s.maxBacklog = maxTime(s.maxBacklog, sys.Fabric.MaxBacklog())
	s.hasWire, s.hasPool, s.hasPackets, s.hasVerbs = true, true, true, true
}

// workloads builds each workload for a seed. traced marks the traced pass,
// in which a workload may enable the program's own telemetry for counters
// that are not reachable from outside.
var workloads = map[string]func(seed uint64, traced bool) workload{
	"ag188":       func(seed uint64, _ bool) workload { return &ag188{seed: seed} },
	"fsdp-step":   func(seed uint64, _ bool) workload { return &fsdpStep{seed: seed} },
	"chaos-sweep": func(seed uint64, traced bool) workload { return &chaosSweep{seed: seed, traced: traced} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- ag188 ------------------------------------------------------------------------

// ag188 is the paper's headline point: the reliable-multicast Allgather on
// the 188-node testbed model with 56 Gbit/s links, 256 KiB per rank, on one
// warm communicator. A single large point: only the scheduler, fabric
// multicast, UD verbs and the core fast path can make it faster.
type ag188 struct {
	seed uint64
	sys  *repro.System
	alg  repro.Algorithm
}

const (
	ag188Bytes  = 256 << 10
	testbedLink = 7e9 // bytes/s: 56 Gbit/s, as `repro osu -nodes 188`
)

func (w *ag188) setupRepeats() int { return setupRepeats }

func (w *ag188) release() { w.sys, w.alg = nil, nil }

func (w *ag188) prepare(tr *tracer) (time.Duration, *simStats, error) {
	start := time.Now()
	sp := tr.begin("repro.NewSystem testbed188")
	sys, err := repro.NewSystem(repro.SystemConfig{
		Topology: "testbed188", Seed: w.seed, Fabric: fabric.Config{LinkBandwidth: testbedLink},
	})
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("repro.NewAlgorithm mcast-allgather")
	t := time.Now()
	alg, err := repro.NewAlgorithm(sys, "mcast-allgather", repro.AlgorithmOptions{})
	newDur := time.Since(t)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	w.sys, w.alg = sys, alg
	// Queue pairs and buffers are set up lazily by the first op, so the
	// warm-up op belongs to set-up.
	st, _, err := w.op(tr, "warm-up Run")
	if err != nil {
		return 0, nil, err
	}
	st.registryNew = newDur
	return time.Since(start), &st, nil
}

func (w *ag188) unit(tr *tracer) (unit, error) {
	st, wall, err := w.op(tr, "Run")
	u := unit{wall: wall, attempted: 1, stats: st}
	if err != nil {
		u.failed = 1
	}
	return u, err
}

// op runs one Allgather and checks its output.
func (w *ag188) op(tr *tracer, label string) (simStats, time.Duration, error) {
	var st simStats
	before := readCounters(w.sys)
	sp := tr.begin(label + " mcast-allgather")
	t := time.Now()
	res, err := w.alg.Run(repro.Op{Kind: repro.Allgather, Bytes: ag188Bytes})
	wall := time.Since(t)
	tr.end(sp)
	if err != nil {
		return st, wall, err
	}
	st.addDelta(w.sys, before)
	st.simUs = res.Duration().Micros()
	st.addCore(res)
	st.runMs = []float64{float64(wall) / 1e6}
	if w.sys.Fabric.Partitioned() {
		st.partitioned = 1
	}
	if err := checkAllgather(res, ag188Bytes); err != nil {
		return st, wall, err
	}
	if st.recovered != 0 {
		return st, wall, fmt.Errorf("clean fabric needed slow-path recovery of %d chunks", st.recovered)
	}
	return st, wall, nil
}

// --- fsdp-step ----------------------------------------------------------------------

// fsdpStep runs one training step of each FSDP preset — ring AG + ring RS
// over RC, and multicast AG + in-network RS — at 32 nodes, 8 layers and
// 512 KiB shards on the star fabric the train kind uses. Every step runs on
// a freshly built system and DAG; building them is the set-up.
type fsdpStep struct {
	seed  uint64
	built []fsdpBuilt // one per preset, ready for the next unit
}

type fsdpBuilt struct {
	sys *repro.System
	wl  repro.Workload
}

var fsdpPresets = []string{"fsdp-ring", "fsdp-inc"}

const (
	fsdpNodes  = 32
	fsdpLayers = 8
	fsdpShard  = 512 << 10
	// fsdpSetupRepeats: a build takes well under a millisecond, so many
	// samples make its median steady.
	fsdpSetupRepeats = 25
)

func (w *fsdpStep) setupRepeats() int { return fsdpSetupRepeats }
func (w *fsdpStep) release()          { w.built = nil }

// prepare builds the system and DAG of each preset for the next unit.
func (w *fsdpStep) prepare(tr *tracer) (time.Duration, *simStats, error) {
	start := time.Now()
	w.built = w.built[:0]
	for _, preset := range fsdpPresets {
		sp := tr.begin("repro.NewSystem star + NewWorkload " + preset)
		sys, err := repro.NewSystem(repro.SystemConfig{Topology: "star", Hosts: fsdpNodes, Seed: w.seed})
		if err != nil {
			tr.end(sp)
			return 0, nil, err
		}
		wl, err := repro.NewWorkload(preset, repro.WorkloadConfig{
			Nodes: fsdpNodes, Layers: fsdpLayers, ShardBytes: fsdpShard,
		})
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		w.built = append(w.built, fsdpBuilt{sys, wl})
	}
	return time.Since(start), nil, nil
}

func (w *fsdpStep) unit(tr *tracer) (unit, error) {
	u := unit{stats: simStats{stepUs: map[string]float64{}, overlap: map[string]float64{}, exposedUs: map[string]float64{}}}
	if len(w.built) == 0 {
		d, _, err := w.prepare(tr)
		if err != nil {
			u.attempted, u.failed = 1, 1
			return u, err
		}
		u.setup = d
	}
	built := w.built
	w.built = nil
	for i, preset := range fsdpPresets {
		u.attempted++
		if err := w.step(tr, preset, built[i], &u); err != nil {
			u.failed++
			return u, fmt.Errorf("%s: %w", preset, err)
		}
	}
	return u, nil
}

func (w *fsdpStep) step(tr *tracer, preset string, b fsdpBuilt, u *unit) error {
	sys, wl := b.sys, b.wl
	before := readCounters(sys)
	sp := tr.begin("System.RunWorkload " + preset)
	t := time.Now()
	rep, err := sys.RunWorkload(wl)
	u.wall += time.Since(t)
	tr.end(sp)
	if err != nil {
		return err
	}
	st := &u.stats
	st.addDelta(sys, before)

	phases := map[string]repro.WorkloadPhase{}
	var step, busy, exposed sim.Time
	spans := 0
	for ji, job := range wl.Jobs {
		for _, ph := range job.Phases {
			phases[job.Name+"/"+ph.Name] = ph
		}
		jr := &rep.Jobs[ji]
		spans += len(jr.Spans)
		step = maxTime(step, jr.StepTime())
		busy += jr.CommBusy
		exposed += jr.Exposed()
		for _, s := range jr.Spans {
			if s.Result == nil {
				continue
			}
			if s.Result.Kind == string(repro.Allgather) {
				if err := checkAllgather(s.Result, phases[s.Job+"/"+s.Phase].Bytes); err != nil {
					return fmt.Errorf("phase %s: %w", s.Phase, err)
				}
			}
			st.addCore(s.Result)
		}
	}
	if spans != len(phases) {
		return fmt.Errorf("%d phases reported %d spans", len(phases), spans)
	}
	overlap := 0.0
	if busy > 0 {
		overlap = 1 - float64(exposed)/float64(busy)
	}
	st.simUs += step.Micros()
	st.stepUs[preset] = step.Micros()
	st.overlap[preset] = overlap
	st.exposedUs[preset] = exposed.Micros()
	return nil
}

// --- chaos-sweep --------------------------------------------------------------------

// chaosSweep is a warm-start sweep of mcast- and ring-allgather under every
// scenario preset at 64 testbed nodes and 256 KiB, on two sweep workers:
// the same core, verbs and fabric code as ag188, run lossy and perturbed
// instead of clean, plus the sweep, snapshot-fork and harness layers. One
// unit is one pass over chaosGrids grids with seeds derived from the
// benchmark seed: how much recovery and background traffic a point needs
// depends on its seed, and several grids per pass average that out.
type chaosSweep struct {
	seed   uint64
	traced bool
}

var chaosAlgos = []string{"mcast-allgather", "ring-allgather"}

const (
	chaosNodes   = 64
	chaosBytes   = 256 << 10
	chaosWorkers = 2
	chaosGrids   = 4
)

func (w *chaosSweep) setupRepeats() int { return setupRepeats }
func (w *chaosSweep) release()          {}

// prepare builds, one after another, a stack for every warm key of the
// grid: the set-up a pass needs at least once. The stacks are discarded;
// inside a pass the workers build on demand, and which worker builds which
// key, next to what the other worker runs, depends on scheduling.
func (w *chaosSweep) prepare(tr *tracer) (time.Duration, *simStats, error) {
	var k harness.WarmResilience
	built := map[string]bool{}
	start := time.Now()
	for _, s := range w.specs() {
		key := k.WarmKey(s)
		if built[key] {
			continue
		}
		built[key] = true
		sp := tr.begin("Warmable.Build " + s.String())
		_, err := k.Build(s)
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start), nil, nil
}

// specs expands the pass's grids, ordered by warm key so that points
// sharing a built stack run back to back: both workers then build every key
// early in the pass, and the stacks they hold barely depend on scheduling.
func (w *chaosSweep) specs() []sweep.Spec {
	var specs []sweep.Spec
	for g := uint64(0); g < chaosGrids; g++ {
		grid := harness.ResilienceGrid(chaosAlgos, repro.Scenarios(), chaosNodes, chaosBytes, w.seed*chaosGrids+g)
		specs = append(specs, grid.Expand()...)
	}
	var k harness.WarmResilience
	sort.SliceStable(specs, func(i, j int) bool { return k.WarmKey(specs[i]) < k.WarmKey(specs[j]) })
	return specs
}

func (w *chaosSweep) unit(tr *tracer) (unit, error) {
	specs := w.specs()
	u := unit{attempted: len(specs)}
	if w.traced {
		// The sweep's fabric packets, backlog, wire bytes and verbs counters
		// are reachable only through the program's telemetry.
		harness.SetTelemetry(telemetry.Config{Enabled: true})
		defer harness.SetTelemetry(telemetry.Config{})
	}
	sp := tr.begin("sweep.RunWarm chaos grid")
	k := &timedWarm{inner: harness.WarmResilience{}, tr: tr, parent: sp}
	t := time.Now()
	recs, err := sweep.RunWarm(specs, chaosWorkers, k)
	u.wall = time.Since(t)
	tr.end(sp)
	if err != nil {
		u.failed = len(specs)
		return u, err
	}
	partitioned := 0
	for _, s := range specs {
		// The harness keys a build by its partition decision (the
		// scenario slot of the key reads "part" or "nopart"): the only
		// place that silent choice is visible from outside.
		if strings.HasSuffix(k.inner.WarmKey(s), "/part") {
			partitioned++
		}
	}
	st := &u.stats
	st.points, st.builds, st.cold = len(recs), len(k.buildMs), k.cold
	st.pointMs, st.busy = k.pointMs, k.busy
	st.partitioned = float64(partitioned) / float64(len(specs))
	st.telemetryOn = w.traced
	st.hasWire, st.hasPackets, st.hasVerbs = w.traced, w.traced, w.traced
	if len(recs) != len(specs) {
		u.failed = len(specs)
		return u, fmt.Errorf("%d records for %d points", len(recs), len(specs))
	}
	for i, rec := range recs {
		if rec.Result == nil {
			u.failed++
			return u, fmt.Errorf("point %s returned no result", specs[i])
		}
		if err := checkAllgather(rec.Result, chaosBytes); err != nil {
			u.failed++
			return u, fmt.Errorf("point %s: %w", specs[i], err)
		}
		p := pointRow{spec: specs[i], simUs: rec.Metric("duration_us"), events: rec.Metric("sim_events"),
			drops: rec.Metric("drops"), recovered: rec.Metric("recovered"),
			partitioned: strings.HasSuffix(k.inner.WarmKey(specs[i]), "/part")}
		st.pointRows = append(st.pointRows, p)
		st.simUs += p.simUs
		st.events += uint64(p.events)
		st.scheduled += uint64(rec.Metric("sim_scheduled"))
		st.drops += uint64(p.drops)
		st.perturbs += int(rec.Metric("perturbs"))
		st.restores += int(rec.Metric("restores"))
		st.bgBytes += uint64(rec.Metric("bg_mbytes") * 1e6)
		st.addCore(rec.Result)
		if rec.Telemetry != nil {
			addTelemetry(st, rec.Telemetry)
		}
	}
	return u, nil
}

// pointRow is one sweep point's outcome, printed by the traced run.
type pointRow struct {
	spec                            sweep.Spec
	simUs, events, drops, recovered float64
	partitioned                     bool
}

// addTelemetry sums a point's exported fabric and verbs counters.
func addTelemetry(st *simStats, snap *telemetry.Snapshot) {
	for _, m := range snap.Metrics {
		switch {
		case m.Key == "fabric/wire_bytes_total":
			st.wireBytes += m.Value
		case m.Key == "verbs/retransmits":
			st.retransmits += m.Value
		case m.Key == "verbs/rnr_drops":
			st.rnrDrops += m.Value
		case m.Key == "verbs/uc_msg_dropped":
			st.ucDropped += m.Value
		case strings.HasPrefix(m.Key, "fabric/channel_packets{"):
			st.packets += m.Value
		case strings.HasPrefix(m.Key, "fabric/channel_max_backlog_ns{"):
			st.maxBacklog = maxTime(st.maxBacklog, sim.Time(m.Value))
		}
	}
}

// timedWarm wraps the harness's warm-start kernel to time and count what
// the sweep does with it: builds, forked runs and cold fallbacks.
type timedWarm struct {
	inner  sweep.Warmable
	tr     *tracer
	parent int

	mu      sync.Mutex
	cold    int
	buildMs []float64
	pointMs []float64
	busy    time.Duration
}

func (k *timedWarm) WarmKey(s sweep.Spec) string { return k.inner.WarmKey(s) }

func (k *timedWarm) Build(s sweep.Spec) (sweep.Instance, error) {
	sp := k.tr.beginLane("Warmable.Build "+s.String(), k.parent)
	t := time.Now()
	inst, err := k.inner.Build(s)
	d := time.Since(t)
	k.tr.end(sp)
	k.mu.Lock()
	k.buildMs = append(k.buildMs, float64(d)/1e6)
	k.busy += d
	k.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &timedInst{inner: inst, k: k}, nil
}

func (k *timedWarm) Cold(s sweep.Spec) (sweep.Record, error) {
	sp := k.tr.beginLane("Warmable.Cold "+s.String(), k.parent)
	t := time.Now()
	rec, err := k.inner.Cold(s)
	d := time.Since(t)
	k.tr.end(sp)
	k.mu.Lock()
	k.cold++
	k.mu.Unlock()
	k.point(d)
	return rec, err
}

func (k *timedWarm) point(d time.Duration) {
	k.mu.Lock()
	k.pointMs = append(k.pointMs, float64(d)/1e6)
	k.busy += d
	k.mu.Unlock()
}

type timedInst struct {
	inner sweep.Instance
	k     *timedWarm
}

func (i *timedInst) Run(s sweep.Spec) (sweep.Record, error) {
	sp := i.k.tr.beginLane("Instance.Run "+s.String(), i.k.parent)
	t := time.Now()
	rec, err := i.inner.Run(s)
	d := time.Since(t)
	i.k.tr.end(sp)
	i.k.point(d)
	return rec, err
}
