package harness

import (
	"bytes"
	"testing"

	"repro/internal/collective"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The mid-run fork property: snapshot the full simulation state after a
// prefix of the run, let the original timeline run to completion (dirtying
// the event pool and every model object far past the fork point), then
// rewind and re-drive the continuation — the replayed run must produce the
// Record a straight-through cold run produces, byte-identically, at
// multiple fork points. This is what makes `repro
// replay` an exact debugger rather than an approximation.

// forkedResilienceRecord runs one quiet resilience point with a mid-run
// rewind at `prefix` of virtual time, mirroring resilienceRun's driving
// loop and record assembly exactly.
func forkedResilienceRecord(t *testing.T, s sweep.Spec, prefix sim.Time) sweep.Record {
	t.Helper()
	pt, err := collPoint(s, newRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s = pt.spec
	sc, err := scenario.New(s.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	f := pt.f
	eng := f.Engine()
	starter, ok := pt.alg.(collective.Starter)
	if !ok {
		t.Fatalf("%s is not a Starter", s.Algorithm)
	}
	act := sc.InstallOn(f, f.Graph().Hosts()[:s.Nodes], s.Seed)
	var res *collective.Result
	err = starter.Start(collective.Op{Kind: collective.Kind(s.Op), Bytes: s.MsgBytes},
		func(r *collective.Result) {
			res = r
			act.Stop()
		})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(prefix)
	if res != nil {
		t.Fatalf("prefix %v ran past completion; pick an earlier fork point", prefix)
	}
	fork := captureFork(eng, pt.f, pt.cl, pt.alg, pt.reg, pt.sampler)

	// Original timeline to completion: recycles the recorded events and
	// mutates every model object past the fork point.
	for res == nil && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		eng.RunFor(sim.Millisecond)
	}
	if res == nil {
		t.Fatalf("%s did not complete", s.Algorithm)
	}

	// Rewind and replay the continuation.
	fork.rewind()
	res = nil
	for res == nil && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		eng.RunFor(sim.Millisecond)
	}
	if res == nil {
		t.Fatalf("%s did not complete after rewind", s.Algorithm)
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
	return rec
}

// metricsDoc canonicalizes the records' telemetry into the metrics.json
// byte form `repro run` writes.
func metricsDoc(recs []sweep.Record) []byte {
	doc := telemetry.Document{Name: "fork-test"}
	for i := range recs {
		if recs[i].Telemetry == nil {
			continue
		}
		doc.Points = append(doc.Points, telemetry.Point{
			Key:     recs[i].Spec.Key(),
			Metrics: recs[i].Telemetry.Metrics,
		})
	}
	return doc.Encode()
}

// TestMidRunForkByteIdentical forks after two different prefixes and
// requires the replayed continuation's Record to match a straight cold run
// byte for byte.
func TestMidRunForkByteIdentical(t *testing.T) {
	s := sweep.Spec{Algorithm: "mcast-allgather", Scenario: "quiet",
		Nodes: 16, MsgBytes: 4096, Seed: 7}
	cold, err := ResilienceKernel(s)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	// The quiet point lasts ~35µs of virtual time; fork early and late.
	for _, prefix := range []sim.Time{5 * sim.Microsecond, 20 * sim.Microsecond} {
		forked := forkedResilienceRecord(t, s, prefix)
		diffWarmCold(t, "mid-run fork", []sweep.Record{cold}, []sweep.Record{forked})
	}
}

// TestMidRunForkTelemetry repeats the property with the telemetry registry
// enabled and additionally compares the canonical metrics.json bytes: the
// registry's counters, gauges and sample streams are part of the rewound
// state, so the documents must be identical.
func TestMidRunForkTelemetry(t *testing.T) {
	SetTelemetry(telemetry.Config{Enabled: true})
	defer SetTelemetry(telemetry.Config{})
	s := sweep.Spec{Algorithm: "mcast-allgather", Scenario: "quiet",
		Nodes: 16, MsgBytes: 4096, Seed: 7}
	cold, err := ResilienceKernel(s)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	forked := forkedResilienceRecord(t, s, 10*sim.Microsecond)
	diffWarmCold(t, "mid-run fork + telemetry", []sweep.Record{cold}, []sweep.Record{forked})
	if cm, fm := metricsDoc([]sweep.Record{cold}), metricsDoc([]sweep.Record{forked}); !bytes.Equal(cm, fm) {
		t.Errorf("metrics.json diverged\ncold: %.1500s\nfork: %.1500s", cm, fm)
	}
}
