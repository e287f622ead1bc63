package harness

import (
	"reflect"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Warm-start kernels: grid points that construct the same model stack —
// the same fabric, cluster and algorithm, differing only in seed, message
// size or perturbation scenario — share one built instance per worker and
// fork it per point. A fork rewinds the engine (clock, counters, queue,
// RNG tree) via sim.Snapshot, rewinds every model object in place via
// internal/snap, and reseeds the RNG tree to the point seed, so the forked
// continuation is bit-for-bit the run a cold construction with that seed
// would produce. Construction dominates short points (the 188-host testbed
// stack costs more to build than a 64 KiB collective costs to run), which
// is where the sweep-level speedup comes from.

// modelSnapConfig lists the pointer-target types the reflective capture
// must not follow: immutable shared structure (the topology graph, routing
// tables, multicast trees — built once, never mutated) and the engine and
// its events, whose state is captured natively by sim.Snapshot. The engine
// is the only owner of its events: a sim.Handle held by model state keeps
// its pointer and generation, while Engine.Restore re-files the event
// itself, so a capture that followed the pointer would write stale queue
// bookkeeping (slot, region, time) over the re-filed event. Byte slices are
// declared bulk payload: message and staging buffers carry tens of
// megabytes whose content never influences event timing (the simulation
// times sizes, not bytes; the harness never enables data verification),
// and excluding them keeps a fork proportional to the protocol state that
// actually changes.
func modelSnapConfig() snap.Config {
	return snap.Config{
		Skip: []reflect.Type{
			reflect.TypeOf(sim.Engine{}),
			reflect.TypeOf(sim.Event{}),
			reflect.TypeOf(topology.Graph{}),
			reflect.TypeOf(topology.RoutingTable{}),
			reflect.TypeOf(topology.MulticastTree{}),
		},
		Payload: []reflect.Type{reflect.TypeOf(byte(0))},
	}
}

// warmFork couples the engine snapshot with the reflective model-state
// capture: the complete fork point of one built stack.
type warmFork struct {
	eng   *sim.Engine
	snap  *sim.Snapshot
	state *snap.State
}

// captureFork snapshots the stack at its current state. Pending event
// payloads join the capture roots: an in-flight payload is reachable only
// from the event queue, yet the continuation will mutate it.
func captureFork(eng *sim.Engine, roots ...any) *warmFork {
	w := &warmFork{eng: eng, snap: eng.Snapshot()}
	roots = append(roots, w.snap.Payloads()...)
	w.state = snap.Capture(modelSnapConfig(), roots...)
	return w
}

// rewind restores engine and model back to the capture on the SAME
// timeline: the RNG tree rewinds to its captured state, so re-running the
// continuation replays the original execution exactly.
func (w *warmFork) rewind() {
	w.eng.Restore(w.snap)
	w.state.Restore()
}

// fork rewinds engine and model back to the capture, then reseeds the RNG
// tree to the point seed — the same states a cold construction with that
// seed produces (the fabric's split child is the engine root's only
// construction-time consumer, which is what makes reseed-by-split-replay
// exact).
func (w *warmFork) fork(seed uint64) {
	w.rewind()
	w.eng.Reseed(seed)
}

// bytes reports the fork point's size (informational perf metric).
func (w *warmFork) bytes() int { return w.state.Bytes() + w.snap.Bytes() }

// --- chaos (resilience) ----------------------------------------------------------

// WarmResilience is the warm-start form of ResilienceKernel: one built
// testbed stack per (algorithm, nodes, size), forked per scenario. The
// quiet baseline is thereby memoized — every injected variant forks the
// same constructed stack the quiet anchor used.
type WarmResilience struct{}

func (WarmResilience) WarmKey(s sweep.Spec) string {
	k := s
	// Scenario is a continuation-only axis: the injectors install after
	// the fork.
	k.Scenario = ""
	return k.Key()
}

func (WarmResilience) Build(s sweep.Spec) (sweep.Instance, error) {
	pt, err := collPoint(s, newRegistry())
	if err != nil {
		return nil, err
	}
	return &warmChaosInst{pt: pt,
		fork: captureFork(pt.f.Engine(), pt.f, pt.cl, pt.alg, pt.reg, pt.sampler)}, nil
}

func (WarmResilience) Cold(s sweep.Spec) (sweep.Record, error) { return ResilienceKernel(s) }

type warmChaosInst struct {
	pt   collPt
	fork *warmFork
}

func (w *warmChaosInst) Run(s sweep.Spec) (sweep.Record, error) {
	if _, err := scenario.New(s.Scenario); err != nil {
		return sweep.Record{}, err
	}
	s, err := withOp(s)
	if err != nil {
		return sweep.Record{}, err
	}
	w.fork.fork(s.Seed)
	return resilienceRun(w.pt, s)
}

// Bytes reports the built instance's fork-point size: engine snapshot plus
// captured model regions (the informational snapshot-bytes perf metric).
func (w *warmChaosInst) Bytes() int { return w.fork.bytes() }

// WarmResilienceRecords is ResilienceRecords on the warm-start path.
func WarmResilienceRecords(g sweep.Grid, workers int) ([]sweep.Record, error) {
	recs, err := sweep.RunWarm(g.Expand(), workers, WarmResilience{})
	if err != nil {
		return nil, err
	}
	AnnotateSlowdown(recs)
	return recs, nil
}

// --- OSU -------------------------------------------------------------------------

// WarmOSU is the warm-start form of OSUKernel: one built testbed stack per
// (algorithm, op, nodes), forked per message size and seed — the build
// never consumes the size, so a whole size sweep shares one stack.
func WarmOSU(cfg OSUConfig) sweep.Warmable { return warmOSU{cfg} }

type warmOSU struct{ cfg OSUConfig }

func (k warmOSU) WarmKey(s sweep.Spec) string {
	key := s
	key.MsgBytes = 0
	return key.Key()
}

func (k warmOSU) Build(s sweep.Spec) (sweep.Instance, error) {
	pt, err := osuPoint(k.cfg, s, newRegistry())
	if err != nil {
		return nil, err
	}
	return &warmOSUInst{cfg: k.cfg, pt: pt,
		fork: captureFork(pt.f.Engine(), pt.f, pt.cl, pt.alg, pt.reg, pt.sampler)}, nil
}

func (k warmOSU) Cold(s sweep.Spec) (sweep.Record, error) { return OSUKernel(k.cfg)(s) }

type warmOSUInst struct {
	cfg  OSUConfig
	pt   collPt
	fork *warmFork
}

func (w *warmOSUInst) Run(s sweep.Spec) (sweep.Record, error) {
	s, err := withOp(s)
	if err != nil {
		return sweep.Record{}, err
	}
	w.fork.fork(s.Seed)
	return osuRun(w.cfg, w.pt, s)
}

// --- train -----------------------------------------------------------------------

// WarmTrain is the warm-start form of TrainKernel: one built star-fabric
// workload stack per (workload, nodes, shard size), forked per scenario
// and seed.
func WarmTrain(cfg TrainConfig) sweep.Warmable { return warmTrain{cfg} }

type warmTrain struct{ cfg TrainConfig }

func (k warmTrain) WarmKey(s sweep.Spec) string {
	key := s
	key.Scenario = ""
	return key.Key()
}

func (k warmTrain) Build(s sweep.Spec) (sweep.Instance, error) {
	pt, err := trainPoint(s, k.cfg, newRegistry())
	if err != nil {
		return nil, err
	}
	inst := &warmTrainInst{pt: pt}
	inst.fork = captureFork(pt.cl.Fabric().Engine(), pt.cl, &inst.pt.w, pt.reg, pt.sampler)
	return inst, nil
}

func (k warmTrain) Cold(s sweep.Spec) (sweep.Record, error) { return TrainKernel(k.cfg)(s) }

type warmTrainInst struct {
	pt   trainPt
	fork *warmFork
}

func (w *warmTrainInst) Run(s sweep.Spec) (sweep.Record, error) {
	w.fork.fork(s.Seed)
	return trainRun(w.pt, s)
}

// compile-time interface checks
var (
	_ sweep.Warmable = WarmResilience{}
	_ sweep.Warmable = warmOSU{}
	_ sweep.Warmable = warmTrain{}
)
