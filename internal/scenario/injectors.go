package scenario

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- channel selectors ------------------------------------------------------------

// Selector picks the directed channels an injector perturbs. Selectors run
// once, at installation time, drawing any randomness from the injector's
// private RNG stream and victims from the context's workload scope; an
// empty selection turns the injector into a no-op (e.g. spine selectors on
// a single-switch topology).
type Selector func(ctx *Context) []fabric.ChannelID

// nodeChannels returns every directed channel touching n, both directions.
func nodeChannels(f *fabric.Fabric, n topology.NodeID) []fabric.ChannelID {
	var out []fabric.ChannelID
	for id := 0; id < f.NumChannels(); id++ {
		from, to := f.ChannelEnds(fabric.ChannelID(id))
		if from == n || to == n {
			out = append(out, fabric.ChannelID(id))
		}
	}
	return out
}

// randomPair picks two distinct workload hosts; ok is false below two.
func randomPair(ctx *Context) (a, b topology.NodeID, ok bool) {
	hosts := ctx.Hosts()
	if len(hosts) < 2 {
		return 0, 0, false
	}
	i := ctx.RNG.Intn(len(hosts))
	j := ctx.RNG.Intn(len(hosts) - 1)
	if j >= i {
		j++
	}
	return hosts[i], hosts[j], true
}

// RandomSpine selects every channel (both directions) of one switch that
// actually carries workload traffic: the highest-level switch on the
// ECMP-pinned path between a random pair of workload hosts. Falling back
// to a random top-level switch when the scope has fewer than two hosts (on
// a star topology either way, the hub is the "spine").
func RandomSpine(ctx *Context) []fabric.ChannelID {
	g := ctx.F.Graph()
	if a, b, ok := randomPair(ctx); ok {
		var spine topology.NodeID = -1
		level := -1
		for _, id := range ctx.F.UnicastPath(a, b, ctx.RNG.Uint64()) {
			from, _ := ctx.F.ChannelEnds(id)
			if g.Nodes[from].Kind == topology.Switch && g.Nodes[from].Level > level {
				spine, level = from, g.Nodes[from].Level
			}
		}
		if spine >= 0 {
			return nodeChannels(ctx.F, spine)
		}
	}
	tops := g.TopSwitches()
	if len(tops) == 0 {
		return nil
	}
	return nodeChannels(ctx.F, tops[ctx.RNG.Intn(len(tops))])
}

// RandomLeafUplinks selects the switch-to-switch channels (both
// directions) of the leaf a random workload host hangs off: its uplinks
// into the aggregation layer. Empty on single-switch topologies.
func RandomLeafUplinks(ctx *Context) []fabric.ChannelID {
	hosts := ctx.Hosts()
	if len(hosts) == 0 {
		return nil
	}
	g := ctx.F.Graph()
	leaf := g.LeafOf(hosts[ctx.RNG.Intn(len(hosts))])
	var out []fabric.ChannelID
	for _, id := range nodeChannels(ctx.F, leaf) {
		from, to := ctx.F.ChannelEnds(id)
		if g.Nodes[from].Kind == topology.Switch && g.Nodes[to].Kind == topology.Switch {
			out = append(out, id)
		}
	}
	return out
}

// HostLinks returns a selector for the NIC links (both directions) of k
// random workload hosts.
func HostLinks(k int) Selector {
	return func(ctx *Context) []fabric.ChannelID {
		hosts := ctx.Hosts()
		if len(hosts) == 0 {
			return nil
		}
		if k < 1 {
			k = 1
		}
		if k > len(hosts) {
			k = len(hosts)
		}
		perm := ctx.RNG.Perm(len(hosts))
		var out []fabric.ChannelID
		for _, i := range perm[:k] {
			out = append(out, nodeChannels(ctx.F, hosts[i])...)
		}
		return out
	}
}

// --- injectors --------------------------------------------------------------------

// Event kinds for runners with more than one: the perturbation and the
// restoration that undoes it.
const (
	evApply uint64 = iota
	evRestore
)

// LinkDegrade scales the selected channels' bandwidth and adds latency at
// Start, restoring them after Duration (0 means for the rest of the run) —
// the slow-drift failure mode of a marginal cable or SerDes.
type LinkDegrade struct {
	Select       Selector
	Scale        float64  // bandwidth multiplier in (0, 1]; 0 leaves bandwidth alone
	ExtraLatency sim.Time // added per traversal
	Start        sim.Time
	Duration     sim.Time // 0 = permanent
}

// Install arms the degradation.
func (d LinkDegrade) Install(ctx *Context) Runner {
	chans := d.Select(ctx)
	if len(chans) == 0 {
		return nil
	}
	r := &degrade{LinkDegrade: d, ctx: ctx, chans: chans}
	r.next = ctx.Eng.AfterHandler(d.Start, r, evApply, 0, nil)
	return r
}

// degrade is LinkDegrade's runner.
type degrade struct {
	LinkDegrade
	ctx   *Context
	chans []fabric.ChannelID
	next  sim.Handle // the pending onset or restoration
}

// set puts scale and extra on the channels, touching only what the
// injector degrades: a restore through ClearOverrides would also wipe a
// drop override a composed injector owns.
func (d *degrade) set(scale float64, extra sim.Time) {
	for _, id := range d.chans {
		if d.Scale > 0 {
			d.ctx.F.SetBandwidthScale(id, scale)
		}
		if d.ExtraLatency > 0 {
			d.ctx.F.SetExtraLatency(id, extra)
		}
	}
}

func (d *degrade) OnEvent(e *sim.Engine, _ sim.Handle, kind uint64, _ int, _ any) {
	if kind == evRestore {
		d.set(1, 0)
		d.ctx.Restored()
		return
	}
	d.set(d.Scale, d.ExtraLatency)
	d.ctx.Perturbed()
	if d.Duration > 0 {
		d.next = e.AfterHandler(d.Duration, d, evRestore, 0, nil)
	}
}

func (d *degrade) Stop() { d.next.Cancel() }

// LinkFlap takes the selected channels down — every traversal drops, as
// when a port is re-training — for Down out of every Period, starting at
// Start, with uniform [0, Jitter) noise on each onset.
type LinkFlap struct {
	Select Selector
	Start  sim.Time
	Period sim.Time
	Down   sim.Time
	Jitter sim.Time
}

// Install arms the flap cycle.
func (lf LinkFlap) Install(ctx *Context) Runner {
	chans := lf.Select(ctx)
	if len(chans) == 0 || lf.Period <= 0 || lf.Down <= 0 || lf.Down >= lf.Period {
		return nil
	}
	return newDropper(ctx, chans, 1, lf.Start, lf.Down, lf.Period, lf.Jitter)
}

// DropHotspot replaces the drop rate on the selected channels at Start,
// restoring the configured rate after Duration (0 = permanent): a localized
// BER hotspot for the reliability slow path to chew on.
type DropHotspot struct {
	Select   Selector
	Rate     float64
	Start    sim.Time
	Duration sim.Time // 0 = permanent
}

// Install arms the hotspot.
func (h DropHotspot) Install(ctx *Context) Runner {
	chans := h.Select(ctx)
	if len(chans) == 0 || h.Rate <= 0 {
		return nil
	}
	return newDropper(ctx, chans, h.Rate, h.Start, h.Duration, 0, 0)
}

// dropper is the runner of LinkFlap (rate 1, periodic) and DropHotspot
// (one onset): it overrides the channels' drop rate for down (0 = for the
// rest of the run) and then puts back what it displaced, so a composed
// injector's override survives. Each onset after the first follows the
// previous one by period plus [0, jitter) noise. An outage always ends
// before the next onset (down < period), so one prev slice serves every
// cycle.
type dropper struct {
	ctx                  *Context
	chans                []fabric.ChannelID
	rate                 float64
	down, period, jitter sim.Time
	prev                 []float64  // the drop rates the current outage displaced
	onset, up            sim.Handle // the next onset; the current outage's end
}

func newDropper(ctx *Context, chans []fabric.ChannelID, rate float64, start, down, period, jitter sim.Time) *dropper {
	r := &dropper{ctx: ctx, chans: chans, rate: rate, down: down, period: period, jitter: jitter,
		prev: make([]float64, len(chans))}
	r.onset = ctx.Eng.AfterHandler(start+r.noise(), r, evApply, 0, nil)
	return r
}

// noise draws an onset's jitter; with none configured it draws nothing.
func (r *dropper) noise() sim.Time {
	if r.jitter <= 0 {
		return 0
	}
	return sim.Time(r.ctx.RNG.Intn(int(r.jitter)))
}

func (r *dropper) OnEvent(e *sim.Engine, _ sim.Handle, kind uint64, _ int, _ any) {
	f := r.ctx.F
	if kind == evRestore {
		for i, id := range r.chans {
			f.SetDropRate(id, r.prev[i])
		}
		r.ctx.Restored()
		return
	}
	for i, id := range r.chans {
		r.prev[i] = f.DropRateOverride(id)
		f.SetDropRate(id, r.rate)
	}
	r.ctx.Perturbed()
	if r.down > 0 {
		r.up = e.AfterHandler(r.down, r, evRestore, 0, nil)
	}
	if r.period > 0 {
		r.onset = e.AfterHandler(r.period+r.noise(), r, evApply, 0, nil)
	}
}

func (r *dropper) Stop() {
	r.onset.Cancel()
	r.up.Cancel()
}

// Straggler slows a random subset of hosts: their NIC links lose bandwidth
// (Scale) and gain injection latency. When Rejitter is set, the extra
// latency is re-rolled uniformly in [0, ExtraLatency) every Rejitter,
// modeling compute/injection jitter rather than a constant slowdown.
type Straggler struct {
	// Fraction of hosts to afflict (at least one). Hosts overrides it with
	// an absolute count when positive.
	Fraction     float64
	Hosts        int
	Scale        float64 // bandwidth multiplier in (0, 1]; 0 leaves bandwidth alone
	ExtraLatency sim.Time
	Rejitter     sim.Time
}

// Install picks the stragglers, slows them, and arms the jitter loop.
func (s Straggler) Install(ctx *Context) Runner {
	hosts := ctx.Hosts()
	if len(hosts) == 0 {
		return nil
	}
	k := s.Hosts
	if k <= 0 {
		k = int(s.Fraction * float64(len(hosts)))
	}
	if k < 1 {
		k = 1
	}
	chans := HostLinks(k)(ctx)
	for _, id := range chans {
		if s.Scale > 0 {
			ctx.F.SetBandwidthScale(id, s.Scale)
		}
		if s.ExtraLatency > 0 {
			ctx.F.SetExtraLatency(id, s.ExtraLatency)
		}
	}
	ctx.Perturbed()
	if s.Rejitter <= 0 || s.ExtraLatency <= 0 {
		return nil
	}
	r := &rejitter{Straggler: s, ctx: ctx, chans: chans}
	r.next = ctx.Eng.AfterHandler(s.Rejitter, r, 0, 0, nil)
	return r
}

// rejitter is Straggler's runner: the latency re-roll loop.
type rejitter struct {
	Straggler
	ctx   *Context
	chans []fabric.ChannelID
	next  sim.Handle
}

func (s *rejitter) OnEvent(e *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	d := sim.Time(s.ctx.RNG.Intn(int(s.ExtraLatency)))
	for _, id := range s.chans {
		s.ctx.F.SetExtraLatency(id, d)
	}
	s.ctx.Perturbed()
	s.next = e.AfterHandler(s.Rejitter, s, 0, 0, nil)
}

func (s *rejitter) Stop() { s.next.Cancel() }

// BackgroundTraffic is the multi-tenant neighbor: persistent unicast flows
// between random host pairs, each injecting packets at Load times the host
// link bandwidth through the fabric's background hook — occupying the same
// channels, serializers and switch buffers as the collective under test.
type BackgroundTraffic struct {
	Flows       int     // flow count; 0 = one per host
	Load        float64 // per-flow injection rate as a fraction of host link bandwidth
	PacketBytes int     // payload per packet; 0 = fabric MTU
	Start       sim.Time
	// Backoff is the tenant's congestion control: when the source uplink's
	// backlog exceeds it, the flow skips injections until the queue drains
	// below it again. Without this, a link oversubscribed by tenant plus
	// collective traffic grows its queue without bound and RC round-trip
	// times diverge. 0 selects DefaultBackoff; negative disables backoff.
	Backoff sim.Time
}

// DefaultBackoff bounds tenant-induced queueing at roughly the scale of an
// RC retransmission timeout's safety margin.
const DefaultBackoff = 50 * sim.Microsecond

// Install launches the flows with deterministically staggered phases.
func (b BackgroundTraffic) Install(ctx *Context) Runner {
	hosts := ctx.Hosts()
	if len(hosts) < 2 || b.Load <= 0 {
		return nil
	}
	size := b.PacketBytes
	if size <= 0 || size > ctx.F.MaxPayload() {
		size = ctx.F.MaxPayload()
	}
	cfg := ctx.F.Config()
	wire := float64(size + cfg.HeaderBytes)
	interval := sim.Time(wire / (cfg.HostLinkBandwidth * b.Load) * 1e9)
	if interval < 1 {
		interval = 1
	}
	backoff := b.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	}
	nflows := b.Flows
	if nflows <= 0 {
		nflows = len(hosts)
	}
	r := &tenants{ctx: ctx, size: size, interval: interval, backoff: backoff,
		flows: make([]tenantFlow, nflows)}
	perm := ctx.RNG.Perm(len(hosts))
	for i := range r.flows {
		fl := &r.flows[i]
		fl.src = hosts[i%len(hosts)]
		fl.dst = hosts[perm[i%len(hosts)]]
		if fl.dst == fl.src {
			fl.dst = hosts[(i+1)%len(hosts)]
		}
		// The flow's congestion signal is the worst queue anywhere on its
		// (ECMP-pinned) path — the scenario-level stand-in for ECN marks.
		fl.path = ctx.F.UnicastPath(fl.src, fl.dst, uint64(i))
		fl.next = ctx.Eng.AfterHandler(b.Start+sim.Time(ctx.RNG.Intn(int(interval))), r, uint64(i), 0, nil)
	}
	ctx.Perturbed()
	return r
}

// tenants is BackgroundTraffic's runner; each event's arg is the index of
// the flow due to send, which is also the flow's ECMP key.
type tenants struct {
	ctx               *Context
	size              int
	interval, backoff sim.Time
	flows             []tenantFlow
}

// tenantFlow is one persistent background flow.
type tenantFlow struct {
	src, dst topology.NodeID
	path     []fabric.ChannelID
	next     sim.Handle
}

func (t *tenants) OnEvent(e *sim.Engine, _ sim.Handle, i uint64, _ int, _ any) {
	fl := &t.flows[i]
	congested := false
	if t.backoff >= 0 {
		for _, id := range fl.path {
			if t.ctx.F.ChannelBacklog(id) >= t.backoff {
				congested = true
				break
			}
		}
	}
	if !congested {
		t.ctx.F.InjectBackground(fl.src, fl.dst, t.size, i)
	}
	fl.next = e.AfterHandler(t.interval, t, i, 0, nil)
}

func (t *tenants) Stop() {
	for i := range t.flows {
		t.flows[i].next.Cancel()
	}
}

// Incast fires periodic many-to-one bursts: every Period, Fanin random
// sources each blast BurstBytes at one rotating victim host, back to back —
// the transient congestion signature the paper's §IV-A sequencer exists to
// avoid causing.
type Incast struct {
	Fanin      int
	BurstBytes int
	Period     sim.Time
	Start      sim.Time
}

// Install arms the burst cycle.
func (inc Incast) Install(ctx *Context) Runner {
	hosts := ctx.Hosts()
	if inc.Fanin < 1 || inc.BurstBytes <= 0 || inc.Period <= 0 || len(hosts) < 2 {
		return nil
	}
	r := &bursts{Incast: inc, ctx: ctx}
	r.Fanin = min(inc.Fanin, len(hosts)-1)
	r.next = ctx.Eng.AfterHandler(inc.Start, r, 0, 0, nil)
	return r
}

// bursts is Incast's runner; its Fanin is capped to the scope's size.
type bursts struct {
	Incast
	ctx  *Context
	next sim.Handle
}

func (inc *bursts) OnEvent(e *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	f := inc.ctx.F
	hosts := inc.ctx.Hosts()
	mtu := f.MaxPayload()
	perm := inc.ctx.RNG.Perm(len(hosts))
	victim := hosts[perm[0]]
	for s := 0; s < inc.Fanin; s++ {
		src := hosts[perm[1+s]]
		for sent := 0; sent < inc.BurstBytes; sent += mtu {
			f.InjectBackground(src, victim, min(inc.BurstBytes-sent, mtu), uint64(s))
		}
	}
	inc.ctx.Perturbed()
	inc.next = e.AfterHandler(inc.Period, inc, 0, 0, nil)
}

func (inc *bursts) Stop() { inc.next.Cancel() }
