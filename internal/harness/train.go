package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// The training sweep measures application-level workloads — declarative
// compute/collective DAGs from internal/workload, headlined by the FSDP
// step of §II-A — on a full-bandwidth star fabric, optionally under a named
// perturbation scenario, so a chaos preset can hit a live training step.

// TrainConfig carries the workload knobs the sweep grid does not vary.
type TrainConfig struct {
	// Layers is the FSDP model depth. Zero defaults to 6.
	Layers int
	// Compute is the forward+backward time per layer. Zero defaults to
	// 150 µs.
	Compute sim.Time
	// Jobs is the tenant count of multi-job presets. Zero defaults to 2.
	Jobs int
}

// TrainGrid declares the workload × shard-size × scenario product at one
// scale: the grid a train manifest compiles to. Workload names come from the
// internal/workload preset registry; include "quiet" among the scenarios to
// anchor the slowdown metric.
func TrainGrid(workloads []string, nodes, shardBytes []int, scenarios []string, seed uint64) sweep.Grid {
	return sweep.Grid{
		Workloads: workloads,
		Nodes:     nodes,
		MsgBytes:  shardBytes,
		Scenarios: scenarios,
		Seed:      seed,
	}
}

// trainPoint builds the point's fabric and workload: a star topology sized
// by the workload's host demand (full-bandwidth, as the FSDP scenario of
// Appendix B assumes), reporting into reg (nil when telemetry is off).
func trainPoint(s sweep.Spec, cfg TrainConfig, reg *telemetry.Registry) (trainPt, error) {
	w, err := workload.New(s.Workload, workload.Config{
		Nodes:      s.Nodes,
		Layers:     cfg.Layers,
		ShardBytes: s.MsgBytes,
		Compute:    cfg.Compute,
		Jobs:       cfg.Jobs,
		Metrics:    reg,
	})
	if err != nil {
		return trainPt{}, err
	}
	hosts := max(w.MinHosts(), s.Nodes)
	if hosts < 2 {
		return trainPt{}, fmt.Errorf("harness: workload %q needs at least 2 hosts", s.Workload)
	}
	f := fabric.New(sim.NewEngine(s.Seed), topology.Star(hosts), fabric.Config{})
	cl := cluster.New(f, cluster.Config{Verbs: verbs.Config{Metrics: reg}})
	return trainPt{cl: cl, w: w, reg: reg, sampler: armFabricTelemetry(reg, f)}, nil
}

// trainPt is one built training point: the model stack plus the workload
// to start on it — the fork unit of the warm-start path.
type trainPt struct {
	cl      *cluster.Cluster
	w       workload.Workload
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
}

// TrainKernel returns the sweep kernel for workload points: it executes the
// point's preset on a fresh star fabric — under the point's scenario when
// one is named, with the resilience sweep's virtual-time and event-budget
// runaway guards — and reports step time, communication busy/exposed time,
// and the achieved overlap. The Record carries the workload metadata fields
// (workload, overlap_frac) alongside the metrics.
func TrainKernel(cfg TrainConfig) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := trainPoint(s, cfg, newRegistry())
		if err != nil {
			return sweep.Record{}, err
		}
		return trainRun(pt, s)
	}
}

// trainRun is the kernel's continuation: start the workload on the built
// stack and drive it to completion. The warm-start path enters here after
// forking a shared stack, so the point's identity (seed, scenario) comes
// from s.
func trainRun(pt trainPt, s sweep.Spec) (sweep.Record, error) {
	cl, w, reg := pt.cl, pt.w, pt.reg
	f := cl.Fabric()
	eng := f.Engine()
	p, err := workload.Start(cl, w)
	if err != nil {
		return sweep.Record{}, err
	}
	if s.Scenario == "" {
		eng.Run()
	} else {
		sc, err := scenario.New(s.Scenario)
		if err != nil {
			return sweep.Record{}, err
		}
		// Scope the scenario to the hosts the workload runs on and
		// drive the engine in bounded slices, exactly as the resilience
		// kernel does: a persistent injector keeps the queue full
		// forever, so completion must be cut off by work done.
		act := sc.InstallOn(f, f.Graph().Hosts(), s.Seed)
		for !p.Done() && p.Err() == nil &&
			eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
			eng.RunFor(sim.Millisecond)
		}
		act.Stop()
		if !p.Done() && p.Err() == nil {
			// Heal the fabric and grant one grace period so transports
			// stuck on a dead path finish instead of deadlocking.
			for id := 0; id < f.NumChannels(); id++ {
				f.ClearOverrides(fabric.ChannelID(id))
			}
			for end := eng.Now() + resilienceHorizon/4; !p.Done() && p.Err() == nil &&
				eng.Now() < end && eng.Executed < 2*resilienceEventBudget; {
				eng.RunFor(sim.Millisecond)
			}
		}
		if !p.Done() && p.Err() == nil {
			return sweep.Record{}, fmt.Errorf("harness: workload %s did not complete under scenario %q within %v / %d events",
				s.Workload, s.Scenario, resilienceHorizon, resilienceEventBudget)
		}
	}
	rep, err := p.Report()
	if err != nil {
		return sweep.Record{}, err
	}
	// Step time is the slowest job's step; busy/exposed/overlap
	// aggregate communication work across jobs.
	var step, commBusy, exposed sim.Time
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if st := j.StepTime(); st > step {
			step = st
		}
		commBusy += j.CommBusy
		exposed += j.Exposed()
	}
	overlap := 0.0
	if commBusy > 0 {
		overlap = 1 - float64(exposed)/float64(commBusy)
		if overlap < 0 {
			overlap = 0
		}
	}
	rec := sweep.Record{
		Spec:        s,
		Workload:    s.Workload,
		OverlapFrac: overlap,
		Metrics: map[string]float64{
			"duration_us":  step.Micros(),
			"span_us":      rep.Span().Micros(),
			"comm_busy_us": commBusy.Micros(),
			"exposed_us":   exposed.Micros(),
			"overlap_frac": overlap,
		},
	}
	addEngineMetrics(&rec, eng)
	rep.ExportTelemetry(reg)
	finishTelemetry(&rec, reg, eng, f, cl)
	return rec, nil
}

// TrainRecords expands and runs the training grid on the worker pool and,
// when the grid sweeps scenarios, annotates slowdown-vs-quiet (each point's
// duration over its quiet sibling's).
func TrainRecords(g sweep.Grid, workers int, cfg TrainConfig) ([]sweep.Record, error) {
	recs, err := sweep.RunGrid(g, workers, TrainKernel(cfg))
	if err != nil {
		return nil, err
	}
	if len(g.Scenarios) > 0 {
		AnnotateSlowdown(recs)
	}
	return recs, nil
}

// TrainTrace runs one workload point — trainPoint plus the kernel's own
// continuation (trainRun) — with an always-on registry, for `repro run
// -trace`/`-perfetto`: protocol phase events of the multicast comms plus
// per-job workload spans and the metrics. The traced run is separate from
// the sweep records, so it never perturbs their byte-identity. P2P-only
// workloads record no phases but still carry workload spans and fabric
// metrics.
func TrainTrace(s sweep.Spec, cfg TrainConfig) (*telemetry.Registry, error) {
	reg := traceRegistry()
	pt, err := trainPoint(s, cfg, reg)
	if err != nil {
		return nil, err
	}
	if _, err := trainRun(pt, s); err != nil {
		return nil, err
	}
	return reg, nil
}
