package main

import (
	"fmt"

	"repro"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
)

// The timed workloads run without payload bytes (the simulation times
// sizes, not bytes), so an untimed check backs the collectives with real
// buffers on a lossy fabric and verifies every rank's received bytes.
var (
	payloadAlgos     = []string{"mcast-allgather", "ring-allgather"}
	payloadScenarios = []string{"hotspot-drop", "flap-spine"}
)

const (
	payloadNodes = 16
	payloadBytes = 64 << 10
	// payloadHorizon bounds the virtual time a perturbed check may take.
	payloadHorizon = 2 * sim.Second
)

// payloadCheck runs every algorithm × scenario check, counting each as an
// op; the first failure stops the run.
func (b *bench) payloadCheck() error {
	for _, algo := range payloadAlgos {
		for _, scen := range payloadScenarios {
			b.attempted++
			if err := verifyPayload(algo, scen, b.seed); err != nil {
				b.failed++
				return fmt.Errorf("payload check %s under %s: %w", algo, scen, err)
			}
		}
	}
	return nil
}

func verifyPayload(algo, scen string, seed uint64) error {
	sys, err := repro.NewSystem(repro.SystemConfig{
		Topology: "testbed188", Seed: seed, Fabric: fabric.Config{LinkBandwidth: testbedLink},
	})
	if err != nil {
		return err
	}
	hosts := sys.Hosts()[:payloadNodes]
	// registry.New, not the facade: the facade would partition the pristine
	// fabric, and a scenario is armed on it next.
	alg, err := registry.New(sys.Cluster, algo, registry.Options{
		Hosts: hosts,
		Core:  core.Config{VerifyData: true},
		Coll:  coll.Config{VerifyData: true},
	})
	if err != nil {
		return err
	}
	sc, err := repro.NewScenario(scen)
	if err != nil {
		return err
	}
	act := sc.InstallOn(sys.Fabric, hosts, seed)
	op := repro.Op{Kind: repro.Allgather, Bytes: payloadBytes}
	starter, okS := alg.(repro.Starter)
	verifier, okV := alg.(registry.Verifier)
	if !okS || !okV {
		return fmt.Errorf("%s cannot run non-blocking with payload verification", algo)
	}
	var res *collective.Result
	if err := starter.Start(op, func(r *collective.Result) {
		res = r
		act.Stop()
	}); err != nil {
		return err
	}
	for res == nil && sys.Engine.Now() < payloadHorizon {
		sys.Engine.RunFor(sim.Millisecond)
	}
	if res == nil {
		return fmt.Errorf("no completion within %v of virtual time", payloadHorizon)
	}
	if err := checkAllgather(res, payloadBytes); err != nil {
		return err
	}
	return verifier.VerifyLast(op)
}
