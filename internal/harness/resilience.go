package harness

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The resilience sweep measures collectives on a noisy fabric: every grid
// point runs one algorithm under one named scenario (internal/scenario) on
// the testbed model and reports how much the perturbations cost relative to
// the quiet fabric, plus the recovery work they forced (fabric drops,
// slow-path repairs, retransmissions, background-traffic volume).

// resilienceHorizon bounds the virtual time a perturbed collective may
// take. A scenario that prevents completion (e.g. a permanently dead path
// with no recovery) would otherwise keep the engine alive forever through
// its own re-arming events.
const resilienceHorizon = 2 * sim.Second

// resilienceEventBudget bounds the executed-event count per point: a
// scenario with persistent background flows schedules packets for as long
// as the engine runs, so a stalled collective must be cut off by work done,
// not just virtual time, or the sweep grinds through hundreds of millions
// of tenant packets on the way to the horizon.
const resilienceEventBudget = 50_000_000

// ResilienceGrid declares the algorithm × scenario product at one scale:
// the grid chaosbench and the resilience experiments expand. Include
// "quiet" among the scenarios to anchor the slowdown metric.
func ResilienceGrid(algos, scenarios []string, nodes, msgBytes int, seed uint64) sweep.Grid {
	return sweep.Grid{
		Algorithms: algos,
		Scenarios:  scenarios,
		Nodes:      []int{nodes},
		MsgBytes:   []int{msgBytes},
		Seed:       seed,
	}
}

// ResilienceKernel is the sweep kernel for collectives under perturbation:
// it arms the point's scenario on a fresh testbed fabric (with an RNG
// stream derived from the point seed, preserving byte-identical JSON at any
// worker count), starts the algorithm non-blocking, and stops the scenario
// the moment the collective completes so the engine drains.
func ResilienceKernel(s sweep.Spec) (sweep.Record, error) {
	if _, err := scenario.New(s.Scenario); err != nil {
		return sweep.Record{}, err
	}
	pt, err := collPoint(s, newRegistry())
	if err != nil {
		return sweep.Record{}, err
	}
	return resilienceRun(pt, pt.spec)
}

// resilienceRun is the kernel's continuation: everything after the model
// stack exists. The warm-start path forks a shared stack back to its
// construction snapshot and enters here, so the continuation must read
// the point's identity from s (seed, scenario), never from pt.spec.
func resilienceRun(pt collPt, s sweep.Spec) (sweep.Record, error) {
	sc, err := scenario.New(s.Scenario)
	if err != nil {
		return sweep.Record{}, err
	}
	f := pt.f
	eng := f.Engine()
	starter, ok := pt.alg.(collective.Starter)
	if !ok {
		return sweep.Record{}, fmt.Errorf("harness: %s cannot run non-blocking under a scenario", s.Algorithm)
	}
	// Scope the scenario to the participating hosts: on the 188-host
	// testbed a fabric-wide random straggler or spine flap would usually
	// land on idle hardware and measure nothing.
	act := sc.InstallOn(f, f.Graph().Hosts()[:s.Nodes], s.Seed)
	var res *collective.Result
	err = starter.Start(collective.Op{Kind: collective.Kind(s.Op), Bytes: s.MsgBytes},
		func(r *collective.Result) {
			res = r
			act.Stop()
		})
	if err != nil {
		return sweep.Record{}, err
	}
	// Drive the engine in slices so both bounds — virtual time and executed
	// events — are enforced even against a scenario that keeps the queue
	// full forever. Slicing never changes results: events fire at identical
	// times, only the (RNG-free) bookkeeping between slices differs.
	for res == nil && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		eng.RunFor(sim.Millisecond)
	}
	if res == nil {
		// Freeze the scenario, heal the fabric, and grant one grace period:
		// a transport stuck retransmitting into a dead link gets to finish
		// on the restored path instead of deadlocking the sweep.
		act.Stop()
		for id := 0; id < f.NumChannels(); id++ {
			f.ClearOverrides(fabric.ChannelID(id))
		}
		for end := eng.Now() + resilienceHorizon/4; res == nil && eng.Now() < end &&
			eng.Executed < 2*resilienceEventBudget; {
			eng.RunFor(sim.Millisecond)
		}
	}
	if res == nil {
		return sweep.Record{}, fmt.Errorf("harness: %s did not complete under scenario %q within %v / %d events",
			s.Algorithm, s.Scenario, resilienceHorizon, resilienceEventBudget)
	}
	var recovered, retransmits, rnrDrops float64
	for _, rs := range res.PerRank {
		recovered += float64(rs.Recovered)
		retransmits += float64(rs.Retransmits)
		rnrDrops += float64(rs.RNRDrops)
	}
	st := act.Stats()
	rec := sweep.Record{Spec: s, Result: res, Metrics: map[string]float64{
		"duration_us": res.Duration().Micros(),
		"gibps":       res.AlgBandwidth() / (1 << 30),
		"drops":       float64(f.TotalDropped),
		"recovered":   recovered,
		"retransmits": retransmits,
		"rnr_drops":   rnrDrops,
		"perturbs":    float64(st.Perturbs),
		"restores":    float64(st.Restores),
		"bg_mbytes":   float64(st.BackgroundBytes) / 1e6,
	}}
	addEngineMetrics(&rec, eng)
	pt.finish(&rec)
	return rec, nil
}

// ChaosTrace is CollTrace for a resilience point: collPoint plus the
// kernel's own continuation (resilienceRun), so the timeline shows the slow
// path at work under the point's scenario — cutoff expiry, neighbor
// fetches, retransmissions — and the registry carries the drop and
// retransmit counters the scenario forced.
func ChaosTrace(s sweep.Spec) (*telemetry.Registry, error) {
	reg := traceRegistry()
	pt, err := collPoint(s, reg)
	if err != nil {
		return nil, err
	}
	if _, err := resilienceRun(pt, pt.spec); err != nil {
		return nil, err
	}
	return reg, nil
}

// AnnotateSlowdown adds the slowdown_vs_quiet metric to every record that
// has a quiet sibling — the same point with the Scenario axis at "quiet"
// (or empty). Quiet points get exactly 1. Records without a quiet sibling
// in the slice are left unannotated.
func AnnotateSlowdown(recs []sweep.Record) {
	quiet := make(map[string]float64)
	for _, r := range recs {
		if r.Spec.Scenario == scenario.Quiet || r.Spec.Scenario == "" {
			k := r.Spec
			k.Scenario = ""
			quiet[k.Key()] = r.Metric("duration_us")
		}
	}
	for i := range recs {
		k := recs[i].Spec
		k.Scenario = ""
		if q, ok := quiet[k.Key()]; ok && q > 0 {
			recs[i].Metrics["slowdown_vs_quiet"] = recs[i].Metric("duration_us") / q
		}
	}
}

// ResilienceRecords expands and runs the resilience grid on the worker pool
// and annotates slowdown-vs-quiet.
func ResilienceRecords(g sweep.Grid, workers int) ([]sweep.Record, error) {
	recs, err := sweep.RunGrid(g, workers, ResilienceKernel)
	if err != nil {
		return nil, err
	}
	AnnotateSlowdown(recs)
	return recs, nil
}
