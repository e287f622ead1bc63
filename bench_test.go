package repro

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs the corresponding harness experiment on the simulator and
// reports the headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result series. The cmd/ binaries print the full tables
// at paper scale; the benchmarks use bounded parameter sets so the whole
// suite completes in minutes.

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/verbs"
)

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
		pts := harness.Fig5SingleCore([]int{1 << 20})
		cpu, dpa = pts[0].CPUGbps, pts[0].DPAGbps
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
		pts, err := harness.Fig10Breakdown([]int{64}, []int{256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		mcastFrac = pts[0].McastFrac
	}
	b.ReportMetric(mcastFrac*100, "%mcast-phase")
}

// BenchmarkFig11ThroughputAtScale measures per-rank receive throughput of
// every algorithm at 64 nodes, 256 KiB (`repro run manifests/fig11.json`
// runs the full 188-node sweep).
func BenchmarkFig11ThroughputAtScale(b *testing.B) {
	byAlgo := map[string]float64{}
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig11Throughput(64, []int{256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			byAlgo[p.Algo] = p.GiBps
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
		rows, err := harness.Fig12Traffic(64, 64<<10, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algo == "mcast" {
				if r.Op == "broadcast" {
					bcast = r.Savings
				} else {
					ag = r.Savings
				}
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
		for _, r := range harness.Table1SingleThread() {
			if r.Datapath == "UC" {
				uc = r.ThroughputGiBps
			} else {
				ud = r.ThroughputGiBps
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
		pts, _ := harness.Fig13ThreadScaling([]int{4, 8})
		for _, p := range pts {
			if p.Transport == "UD" && p.Threads == 8 {
				ud8 = p.GiBps
			}
			if p.Transport == "UC" && p.Threads == 4 {
				uc4 = p.GiBps
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
		pts := harness.Fig15ChunkSize([]int{64 << 10}, []int{1})
		share = pts[0].LinkShare
	}
	b.ReportMetric(share*100, "UC-64KiB-1thr-%peak")
}

// BenchmarkFig16TbitScaling reports the 64 B chunk processing rate at 128
// threads against the 1.6 Tbit/s requirement.
func BenchmarkFig16TbitScaling(b *testing.B) {
	var udRate, ucRate float64
	for i := 0; i < b.N; i++ {
		for _, p := range harness.Fig16TbitScaling([]int{128}) {
			if p.Transport == "UD" {
				udRate = p.ChunkRate
			} else {
				ucRate = p.ChunkRate
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
		pts, err := harness.AppBConcurrent([]int{16}, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		speedup = pts[0].Speedup
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
