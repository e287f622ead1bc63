package harness

import (
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// telemetryCfg is the process-wide telemetry configuration, set once from
// the manifest's telemetry block (or `repro run -metrics`/`-perfetto`)
// before any sweep runs. It is an execution knob, not a sweep axis: the canonical metrics a
// run exports are byte-identical at every -workers value.
var telemetryCfg telemetry.Config

// SetTelemetry configures telemetry for every kernel the harness runs from
// now on. Call once at startup, before running sweeps; the sweep worker
// pool reads it concurrently. The zero Config disables collection — kernels
// then thread a nil registry everywhere, which is free.
func SetTelemetry(cfg telemetry.Config) { telemetryCfg = cfg }

// newRegistry returns a fresh per-point registry, or nil when telemetry is
// disabled. Each grid point gets its own registry (sweep workers run
// points concurrently; registries are not goroutine-safe).
func newRegistry() *telemetry.Registry {
	if !telemetryCfg.Enabled {
		return nil
	}
	return telemetry.New(telemetryCfg)
}

// traceRegistry returns a registry for the representative traced run:
// always enabled — the traced run exists to be observed — but honoring the
// configured sample period and filters.
func traceRegistry() *telemetry.Registry {
	cfg := telemetryCfg
	cfg.Enabled = true
	return telemetry.New(cfg)
}

// armFabricTelemetry attaches the virtual-time sampler that tracks the
// fabric's worst serializer backlog as a gauge. The sampled series is a
// function of virtual time only, so it is identical at every -workers
// value. Returns the sampler so kernels that reuse one fabric
// across iterations can re-arm it (the sampler self-terminates when the
// event queue drains). A nil registry yields a nil sampler; Arm on nil is a
// no-op.
func armFabricTelemetry(reg *telemetry.Registry, f *fabric.Fabric) *telemetry.Sampler {
	s := reg.NewSampler(f.Engine())
	if s == nil {
		return nil
	}
	gauge := reg.Gauge("fabric", "backlog_ns", "", telemetry.Stable)
	s.Add(func(t sim.Time) { gauge.Sample(t, float64(f.CurrentMaxBacklog())) })
	s.Arm()
	return s
}

// collectEngineTelemetry exports the engine's event counters. Events and
// scheduled totals are Stable: they are a function of the simulated point
// alone (the same invariant the sim_events record metric relies on).
// Recycled is Diagnostic — event-pool reuse depends on the free list's
// history, which a warm-start fork inherits from the build it forks, so it
// is visible to benchmarks and `repro trace` but excluded from canonical
// metrics.json.
func collectEngineTelemetry(reg *telemetry.Registry, eng *sim.Engine) {
	if reg == nil {
		return
	}
	reg.Counter("sim", "events", "", telemetry.Stable).Add(eng.Executed)
	reg.Counter("sim", "scheduled", "", telemetry.Stable).Add(eng.Scheduled)
	reg.Counter("sim", "recycled", "", telemetry.Diagnostic).Add(eng.Recycled)
}

// finishTelemetry runs the end-of-point collection pass — engine counters,
// fabric channel counters, transport counters — and attaches the snapshot
// to the record. f and cl may be nil for kernels without that layer. A nil
// registry is a no-op.
func finishTelemetry(rec *sweep.Record, reg *telemetry.Registry, eng *sim.Engine, f *fabric.Fabric, cl *cluster.Cluster) {
	if reg == nil {
		return
	}
	collectEngineTelemetry(reg, eng)
	if f != nil {
		f.CollectTelemetry(reg)
	}
	if cl != nil {
		cl.CollectTelemetry(reg)
	}
	rec.Telemetry = reg.Snapshot()
}
