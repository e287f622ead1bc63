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
	"repro/internal/trace"
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
// Appendix B assumes).
func trainPoint(s sweep.Spec, cfg TrainConfig, tr *trace.Recorder, reg *telemetry.Registry) (*cluster.Cluster, workload.Workload, *telemetry.Sampler, error) {
	w, err := workload.New(s.Workload, workload.Config{
		Nodes:      s.Nodes,
		Layers:     cfg.Layers,
		ShardBytes: s.MsgBytes,
		Compute:    cfg.Compute,
		Jobs:       cfg.Jobs,
		Tracer:     tr,
		Metrics:    reg,
	})
	if err != nil {
		return nil, workload.Workload{}, nil, err
	}
	hosts := w.MinHosts()
	if hosts < s.Nodes {
		hosts = s.Nodes
	}
	if hosts < 2 {
		return nil, workload.Workload{}, nil, fmt.Errorf("harness: workload %q needs at least 2 hosts", s.Workload)
	}
	g := topology.Star(hosts)
	eng := sim.NewEngine(s.Seed)
	f := fabric.New(eng, g, fabric.Config{})
	cl := cluster.New(f, cluster.Config{Verbs: verbs.Config{Metrics: reg}})
	sampler := armFabricTelemetry(reg, f)
	return cl, w, sampler, nil
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
		reg := newRegistry()
		cl, w, sampler, err := trainPoint(s, cfg, nil, reg)
		if err != nil {
			return sweep.Record{}, err
		}
		return trainRun(trainPt{cl: cl, w: w, reg: reg, sampler: sampler}, s)
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

// TrainTrace re-runs one workload point with a trace recorder attached to
// its multicast communicators and an always-on telemetry registry, and
// returns the bundle: protocol phase events plus per-job workload spans and
// the metric snapshot. The traced run is separate from the sweep records,
// so attaching it never perturbs their byte-identity. P2P-only workloads
// produce an empty timeline (the baselines have no protocol tracer) but
// still carry workload spans and fabric metrics in the bundle.
func TrainTrace(s sweep.Spec, cfg TrainConfig) (*telemetry.Bundle, error) {
	rec := &trace.Recorder{}
	reg := traceRegistry()
	cl, w, _, err := trainPoint(s, cfg, rec, reg)
	if err != nil {
		return nil, err
	}
	rep, err := workload.Run(cl, w)
	if err != nil {
		return nil, err
	}
	f := cl.Fabric()
	rep.ExportTelemetry(reg)
	collectEngineTelemetry(reg, f.Engine())
	f.CollectTelemetry(reg)
	cl.CollectTelemetry(reg)
	return &telemetry.Bundle{Events: rec.Events, Snap: reg.Snapshot()}, nil
}
