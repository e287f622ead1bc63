package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// benchFabric builds a small star fabric with background flows between
// every host pair direction, the pure fabric+engine hot path (no verbs).
func benchFabric(b *testing.B) (*sim.Engine, *Fabric, []topology.NodeID) {
	b.Helper()
	eng := sim.NewEngine(1)
	g := topology.Star(8)
	f := New(eng, g, Config{})
	return eng, f, g.Hosts()
}

const benchPackets = 1024

// BenchmarkFabricHop measures the per-hop cost of the transmit/arrive path:
// one iteration injects benchPackets MTU packets, each crossing two
// channels (host -> hub -> host), and drains the engine. The acceptance
// metric is allocs/op: post-overhaul the only allocation left on this path
// is the *Packet itself (events are pooled, arrivals closure-free).
func BenchmarkFabricHop(b *testing.B) {
	eng, f, hosts := benchFabric(b)
	mtu := f.MaxPayload()
	inject := func() {
		for i := 0; i < benchPackets; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i+3)%len(hosts)]
			f.InjectBackground(src, dst, mtu, uint64(i&7))
		}
		eng.Run()
	}
	inject() // warm the event pool and channel bucket slices
	start := eng.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.StopTimer()
	hops := float64(b.N) * benchPackets * 2
	b.ReportMetric(hops/b.Elapsed().Seconds(), "hops/sec")
	b.ReportMetric(float64(eng.Executed-start)/b.Elapsed().Seconds(), "events/sec")
}

// TestFabricHopAllocGate is the satellite AllocsPerRun gate on the
// closure-free fabric hot path: steady-state, a background packet costs
// exactly its own allocation — the two hop events and the delivery come
// from the engine pool.
func TestFabricHopAllocGate(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(4)
	f := New(eng, g, Config{})
	hosts := g.Hosts()
	mtu := f.MaxPayload()
	send := func() {
		f.InjectBackground(hosts[0], hosts[2], mtu, 1)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm pool and slices
		send()
	}
	avg := testing.AllocsPerRun(200, send)
	if avg > 1 {
		t.Fatalf("fabric hop allocates %.2f objects per packet, want <= 1 (the Packet itself)", avg)
	}
}
