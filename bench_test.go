package repro

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs the corresponding harness sweep on the simulator and
// reports the headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result series. The checked-in manifests (`repro run
// manifests/<name>.json`) print the full tables at paper scale; the
// benchmarks use bounded parameter sets so the whole suite completes in
// minutes.

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/verbs"
)

// runSweep runs specs through kernel on the worker pool, failing the
// benchmark on a kernel error.
func runSweep(b *testing.B, specs []sweep.Spec, kernel sweep.Func) []sweep.Record {
	b.Helper()
	recs, err := sweep.Run(specs, 0, kernel)
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

// BenchmarkFig02TrafficModel evaluates the analytic traffic model on the
// 1024-node radix-32 fat-tree and reports the ring/multicast savings.
func BenchmarkFig02TrafficModel(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		g, err := model.Fig2Cluster()
		if err != nil {
			b.Fatal(err)
		}
		m, err := model.NewTrafficModel(g)
		if err != nil {
			b.Fatal(err)
		}
		savings = m.Savings(1 << 20)
	}
	b.ReportMetric(savings, "x-savings")
}

// BenchmarkFig05SingleCoreDatapath compares one CPU thread against one DPA
// core on the UD datapath at 1 MiB messages.
func BenchmarkFig05SingleCoreDatapath(b *testing.B) {
	var cpu, dpa float64
	for i := 0; i < b.N; i++ {
		// One size: the CPU record comes first, then the DPA record.
		recs := runSweep(b, harness.Fig5Specs([]int{1 << 20}), harness.RxKernel)
		cpu, dpa = recs[0].Metric("gbps"), recs[1].Metric("gbps")
	}
	b.ReportMetric(cpu, "cpu-Gbps")
	b.ReportMetric(dpa, "dpa-Gbps")
}

// BenchmarkFig07BitmapModel evaluates the PSN-bits sizing model.
func BenchmarkFig07BitmapModel(b *testing.B) {
	var buf float64
	for i := 0; i < b.N; i++ {
		pts := model.BitmapModel(10, 30, 4096)
		buf = pts[len(pts)-1].MaxRecvBuffer
		_ = model.MaxBufferFittingLLC(4096)
	}
	b.ReportMetric(buf/(1<<30), "max-GiB")
}

// BenchmarkFig10Breakdown measures the critical-path phase split of the
// multicast Allgather at 64 testbed nodes, 256 KiB.
func BenchmarkFig10Breakdown(b *testing.B) {
	var mcastFrac float64
	for i := 0; i < b.N; i++ {
		recs := runSweep(b, harness.Fig10Grid([]int{64}, []int{256 << 10}).Expand(), harness.CollKernel)
		mcastFrac = recs[0].Metric("mcast_frac")
	}
	b.ReportMetric(mcastFrac*100, "%mcast-phase")
}

// BenchmarkFig11ThroughputAtScale measures per-rank receive throughput of
// every algorithm at 64 nodes, 256 KiB (`repro run manifests/fig11.json`
// runs the full 188-node sweep).
func BenchmarkFig11ThroughputAtScale(b *testing.B) {
	byAlgo := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, r := range runSweep(b, harness.Fig11Specs(64, []int{256 << 10}), harness.CollKernel) {
			byAlgo[r.Spec.Algorithm] = r.Metric("gibps")
		}
	}
	b.ReportMetric(byAlgo["mcast-broadcast"], "mcastBcast-GiB/s")
	b.ReportMetric(byAlgo["knomial-broadcast"], "knomial-GiB/s")
	b.ReportMetric(byAlgo["binary-broadcast"], "binary-GiB/s")
	b.ReportMetric(byAlgo["mcast-allgather"], "mcastAG-GiB/s")
	b.ReportMetric(byAlgo["ring-allgather"], "ringAG-GiB/s")
}

// BenchmarkFig12TrafficSavings reads simulated switch-port counters while
// running multicast and P2P collectives at 64 nodes.
func BenchmarkFig12TrafficSavings(b *testing.B) {
	var bcast, ag float64
	for i := 0; i < b.N; i++ {
		recs := runSweep(b, harness.Fig12Specs(64, 64<<10), harness.Fig12Kernel(2))
		harness.AnnotateSavings(recs)
		for _, r := range recs {
			switch r.Spec.Algorithm {
			case "mcast-broadcast":
				bcast = r.Metric("savings_vs_p2p")
			case "mcast-allgather":
				ag = r.Metric("savings_vs_p2p")
			}
		}
	}
	b.ReportMetric(bcast, "bcast-savings-x")
	b.ReportMetric(ag, "allgather-savings-x")
}

// BenchmarkTable1SingleThread measures both single-thread DPA datapaths.
func BenchmarkTable1SingleThread(b *testing.B) {
	var uc, ud float64
	for i := 0; i < b.N; i++ {
		for _, r := range runSweep(b, harness.Table1Grid().Expand(), harness.RxKernel) {
			if r.Spec.Transport == "uc" {
				uc = r.Metric("gibps")
			} else {
				ud = r.Metric("gibps")
			}
		}
	}
	b.ReportMetric(uc, "UC-GiB/s")
	b.ReportMetric(ud, "UD-GiB/s")
}

// BenchmarkFig13ThreadScaling reports link saturation points of the DPA
// receive datapaths.
func BenchmarkFig13ThreadScaling(b *testing.B) {
	var ud8, uc4 float64
	for i := 0; i < b.N; i++ {
		for _, r := range runSweep(b, harness.Fig13Specs([]int{4, 8}), harness.RxKernel) {
			if r.Spec.Transport == "ud" && r.Spec.Threads == 8 {
				ud8 = r.Metric("gibps")
			}
			if r.Spec.Transport == "uc" && r.Spec.Threads == 4 {
				uc4 = r.Metric("gibps")
			}
		}
	}
	b.ReportMetric(ud8, "UD@8thr-GiB/s")
	b.ReportMetric(uc4, "UC@4thr-GiB/s")
}

// BenchmarkFig14LinkUtilization reports the single-thread fraction of the
// 200 Gbit/s link for both datapaths (1/256 of DPA capacity).
func BenchmarkFig14LinkUtilization(b *testing.B) {
	var ud, uc float64
	for i := 0; i < b.N; i++ {
		ud = harness.RunRxBench(harness.RxBenchConfig{
			Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20,
		}).LinkShare
		uc = harness.RunRxBench(harness.RxBenchConfig{
			Transport: verbs.UC, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20,
		}).LinkShare
	}
	b.ReportMetric(ud*100, "UD-%peak")
	b.ReportMetric(uc*100, "UC-%peak")
}

// BenchmarkFig15ChunkSize reports UC throughput with 64 KiB multi-packet
// chunks on a single thread.
func BenchmarkFig15ChunkSize(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		recs := runSweep(b, harness.Fig15Grid([]int{64 << 10}, []int{1}).Expand(), harness.RxKernel)
		share = recs[0].Metric("link_share")
	}
	b.ReportMetric(share*100, "UC-64KiB-1thr-%peak")
}

// BenchmarkFig16TbitScaling reports the 64 B chunk processing rate at 128
// threads against the 1.6 Tbit/s requirement.
func BenchmarkFig16TbitScaling(b *testing.B) {
	var udRate, ucRate float64
	for i := 0; i < b.N; i++ {
		for _, r := range runSweep(b, harness.Fig16Grid([]int{128}).Expand(), harness.Fig16Kernel) {
			if r.Spec.Transport == "ud" {
				udRate = r.Metric("chunk_rate")
			} else {
				ucRate = r.Metric("chunk_rate")
			}
		}
	}
	b.ReportMetric(udRate/1e6, "UD-Mchunks/s")
	b.ReportMetric(ucRate/1e6, "UC-Mchunks/s")
	b.ReportMetric(harness.Tbit16Target/1e6, "target-Mchunks/s")
}

// BenchmarkAllreduce16 runs the composed multicast Allreduce (ring
// Reduce-Scatter + multicast Allgather) at 16 ranks / 1 MiB on a warm
// communicator: the end-to-end event-engine workload the scheduler
// overhaul targets. Reported events/sec is simulated events per wall
// second across the whole stack (fabric, verbs, DPA, protocol); allocs/op
// is the per-operation garbage the pooled engine is gated on in CI.
func BenchmarkAllreduce16(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Hosts: 16, HostsPerLeaf: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	alg, err := NewAlgorithm(sys, "mcast-allreduce", AlgorithmOptions{})
	if err != nil {
		b.Fatal(err)
	}
	op := Op{Kind: Allreduce, Bytes: 1 << 20}
	if _, err := alg.Run(op); err != nil { // warm QPs, buffers, event pool
		b.Fatal(err)
	}
	start := sys.Engine.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(op); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	executed := sys.Engine.Executed - start
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(executed)/float64(b.N), "events/op")
}

// BenchmarkChaosSweepWarm measures the warm-start speedup on an 8-point
// chaosbench grid (mcast-allgather under all eight scenarios at 16 nodes /
// 4 KiB): each iteration runs the sweep cold (a fresh model stack per
// point) and warm (one built stack, forked per scenario) and reports the
// wall-clock ratio. fork-speedup is a same-machine ratio and is
// floor-gated in CI; sweep-wall-ms and snapshot-bytes are informational
// trajectory metrics.
func BenchmarkChaosSweepWarm(b *testing.B) {
	g := harness.ResilienceGrid([]string{"mcast-allgather"},
		[]string{"quiet", "flap-spine", "straggler-1pct", "tenant-50load",
			"tenant-20load", "degrade-leaf", "hotspot-drop", "incast-4to1"}, 16, 4096, 7)
	if _, err := harness.WarmResilienceRecords(g, 1); err != nil { // warm caches and the event pool allocator
		b.Fatal(err)
	}
	var cold, warm time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := harness.ResilienceRecords(g, 1); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := harness.WarmResilienceRecords(g, 1); err != nil {
			b.Fatal(err)
		}
		cold += t1.Sub(t0)
		warm += time.Since(t1)
	}
	b.StopTimer()
	b.ReportMetric(float64(cold)/float64(warm), "fork-speedup")
	b.ReportMetric(float64(warm)/float64(b.N)/1e6, "sweep-wall-ms")
	if inst, err := (harness.WarmResilience{}).Build(g.Expand()[0]); err == nil {
		if sz, ok := inst.(interface{ Bytes() int }); ok {
			b.ReportMetric(float64(sz.Bytes()), "snapshot-bytes")
		}
	}
}

// BenchmarkAppBSpeedup measures the concurrent {AG, RS} speedup at P=16
// against the closed-form 2 - 2/P.
func BenchmarkAppBSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		// The ring-pair record comes first, then the inc-pair record.
		recs := runSweep(b, harness.AppBSpecs([]int{16}, 1<<20), harness.AppBKernel)
		speedup = recs[0].Metric("span_ns") / recs[1].Metric("span_ns")
	}
	b.ReportMetric(speedup, "measured-x")
	b.ReportMetric(model.SpeedupINC(16), "model-x")
}

// BenchmarkWorkloadStep measures one full FSDP training step — the
// declarative workload DAG with prefetched multicast Allgathers, in-network
// Reduce-Scatters and per-layer compute at 16 ranks / 512 KiB shards —
// including system construction, as an application deploying the library
// would run it. events/op is the deterministic per-step event count the CI
// perf gate pins alongside allocs/op.
func BenchmarkWorkloadStep(b *testing.B) {
	var executed uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(SystemConfig{Hosts: 16, Topology: "star", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorkload("fsdp-inc", WorkloadConfig{Nodes: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunWorkload(w); err != nil {
			b.Fatal(err)
		}
		executed += sys.Engine.Executed
	}
	b.StopTimer()
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(executed)/float64(b.N), "events/op")
}
