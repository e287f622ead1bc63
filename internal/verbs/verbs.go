// Package verbs models the InfiniBand Verbs transport layer on top of the
// simulated fabric: queue pairs with the three service types the paper
// analyzes (§II-B) — Unreliable Datagram (UD, multicast-capable, MTU-sized
// datagrams), Unreliable Connection (UC, arbitrary-length RDMA Writes with
// immediate, message dropped if any packet is lost, plus the paper's
// proposed UC-multicast extension), and Reliable Connection (RC, hardware
// reliability, one-sided Read/Write used by the slow-path fetch ring) —
// along with completion queues whose entries carry 32-bit immediate data
// (the PSN channel), memory regions, receive queues with RNR-drop
// semantics, and a non-blocking DMA engine for staging copies.
//
// Memory regions may carry real bytes (Data != nil), in which case all
// transfers move actual data and tests can verify buffer contents, or they
// may be metadata-only for large-scale performance runs where allocating
// hundreds of gigabytes of simulated buffers would be wasteful.
package verbs

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Transport selects the QP service type.
type Transport uint8

const (
	// UD is the Unreliable Datagram transport: connectionless two-sided
	// MTU-sized datagrams, the only transport with standardized multicast.
	UD Transport = iota
	// UC is the Unreliable Connection transport: arbitrary-length RDMA
	// Writes; a message is discarded if any of its packets is lost.
	UC
	// RC is the Reliable Connection transport: hardware retransmission,
	// one-sided Read and Write.
	RC
)

func (t Transport) String() string {
	switch t {
	case UD:
		return "UD"
	case UC:
		return "UC"
	case RC:
		return "RC"
	}
	return "?"
}

// QPN is a queue pair number, unique per host.
type QPN uint32

// Addr names a remote QP endpoint or a multicast group.
type Addr struct {
	Host  topology.NodeID
	QPN   QPN
	Group fabric.GroupID // != NoGroup means multicast destination
}

// IsMulticast reports whether the address targets a multicast group.
func (a Addr) IsMulticast() bool { return a.Group != fabric.NoGroup }

// Unicast builds a unicast address.
func Unicast(host topology.NodeID, qpn QPN) Addr {
	return Addr{Host: host, QPN: qpn, Group: fabric.NoGroup}
}

// Multicast builds a multicast address.
func Multicast(g fabric.GroupID) Addr { return Addr{Group: g} }

// Opcode identifies the kind of completed work in a CQE.
type Opcode uint8

const (
	// OpRecv completes a two-sided receive (UD datagram or RC send).
	OpRecv Opcode = iota
	// OpRecvWriteImm completes a remote RDMA Write-with-immediate (UC/RC):
	// the data is already in the target MR, the immediate is in the CQE.
	OpRecvWriteImm
	// OpSend completes a local send/write request (signaled only).
	OpSend
	// OpRead completes a local RDMA Read (data has landed in the local MR).
	OpRead
	// OpErr reports a terminal transport error (RC retry exhaustion).
	OpErr
)

func (o Opcode) String() string {
	switch o {
	case OpRecv:
		return "recv"
	case OpRecvWriteImm:
		return "recv-write-imm"
	case OpSend:
		return "send"
	case OpRead:
		return "read"
	case OpErr:
		return "err"
	}
	return "?"
}

// CQE is a completion queue entry.
type CQE struct {
	Op      Opcode
	QPN     QPN    // local QP the completion belongs to
	WrID    uint64 // work-request ID supplied at post time (local ops + recv)
	Imm     uint32 // immediate data (PSN channel for the protocol)
	HasImm  bool
	Bytes   int             // payload bytes transferred
	SrcHost topology.NodeID // peer host (receives)
	SrcQPN  QPN             // peer QP (receives)
}

// CQ is a completion queue. Entries are appended in completion order and
// drained by the progress engine (host worker or DPA thread model).
type CQ struct {
	entries []CQE
	// Armed, when set, fires once on the next completion and is then
	// cleared — the event-driven activation model of DOCA FlexIO (§II-C).
	Armed func()
	// Produced counts all CQEs ever pushed, for rate measurements.
	Produced uint64
}

// Push appends a completion. Protocol code never calls this directly.
func (cq *CQ) Push(e CQE) {
	cq.entries = append(cq.entries, e)
	cq.Produced++
	if cq.Armed != nil {
		fn := cq.Armed
		cq.Armed = nil
		fn()
	}
}

// Poll removes and returns the oldest completion.
func (cq *CQ) Poll() (CQE, bool) {
	if len(cq.entries) == 0 {
		return CQE{}, false
	}
	e := cq.entries[0]
	cq.entries = cq.entries[1:]
	return e, true
}

// Len returns the number of completions waiting.
func (cq *CQ) Len() int { return len(cq.entries) }

// MR is a registered memory region. If Data is non-nil its length must be
// Size and transfers copy real bytes; otherwise only sizes/offsets flow.
type MR struct {
	Key  uint32
	Size int
	Data []byte
}

// write stores incoming bytes at off. Bounds are always enforced — a PSN
// pointing outside the buffer must fail loudly, that is the corruption the
// paper's staging design exists to prevent.
func (mr *MR) write(off int, data []byte, n int) {
	if off < 0 || off+n > mr.Size {
		panic(fmt.Sprintf("verbs: write [%d,%d) outside MR of size %d", off, off+n, mr.Size))
	}
	if mr.Data != nil && data != nil {
		copy(mr.Data[off:off+n], data[:n])
	}
}

// read returns n bytes at off (nil in metadata-only mode).
func (mr *MR) read(off, n int) []byte {
	if off < 0 || off+n > mr.Size {
		panic(fmt.Sprintf("verbs: read [%d,%d) outside MR of size %d", off, off+n, mr.Size))
	}
	if mr.Data == nil {
		return nil
	}
	return mr.Data[off : off+n]
}

// recvWQE is one posted receive.
type recvWQE struct {
	wrID   uint64
	mr     *MR
	offset int
	length int
}

// Config tunes transport-level behaviour.
type Config struct {
	// RQDepth is the default receive queue capacity (BlueField-3: 8192).
	RQDepth int
	// RetransmitTimeout is the RC retransmission RTO base.
	RetransmitTimeout sim.Time
	// MaxRetries bounds RC retransmission attempts before an OpErr CQE.
	MaxRetries int
	// DMABandwidth is the staging-copy engine bandwidth in bytes/s
	// (PCIe 4.0 x16 ≈ 32e9). Zero defaults to 32e9.
	DMABandwidth float64
	// DMALatency is the per-copy completion latency (paper: 1–3 µs).
	DMALatency sim.Time
	// Metrics, when set, receives transport telemetry: RC completion
	// latency histograms live, drop/retransmit counters at collection
	// time. Nil (the default) adds no cost anywhere.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.RQDepth == 0 {
		c.RQDepth = 8192
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 200 * sim.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 16
	}
	if c.DMABandwidth == 0 {
		c.DMABandwidth = 32e9
	}
	if c.DMALatency == 0 {
		c.DMALatency = 1500 * sim.Nanosecond
	}
	return c
}

// Context owns the verbs resources of one host: QPs, MRs, and the DMA
// engine. It is the software-visible face of the NIC.
type Context struct {
	Host topology.NodeID
	f    *fabric.Fabric
	eng  *sim.Engine
	nic  *fabric.NIC
	cfg  Config

	qps     map[QPN]*QP
	nextQPN QPN
	mrs     map[uint32]*MR
	nextKey uint32
	// mcast[group] lists local QPs attached to the group.
	mcast map[fabric.GroupID][]*QP
	dma   *DMAEngine

	nextMsgID uint64

	// Stats
	RNRDrops uint64 // datagrams dropped because no receive was posted

	// complLat is the RC completion-latency histogram (post to ack), shared
	// across this context's QPs; nil when Config.Metrics is unset.
	complLat *telemetry.Histogram
}

// NewContext opens a verbs context on host over fabric f.
func NewContext(f *fabric.Fabric, host topology.NodeID, cfg Config) *Context {
	cfg = cfg.withDefaults()
	ctx := &Context{
		Host:  host,
		f:     f,
		eng:   f.Engine(),
		nic:   f.AttachNIC(host),
		cfg:   cfg,
		qps:   make(map[QPN]*QP),
		mrs:   make(map[uint32]*MR),
		mcast: make(map[fabric.GroupID][]*QP),
	}
	ctx.dma = newDMAEngine(ctx.eng, cfg.DMABandwidth, cfg.DMALatency)
	ctx.nic.Deliver = ctx.dispatch
	// All contexts of a cluster share one registry, so every host's RC
	// completions land in the same histogram (the registry dedupes by key).
	ctx.complLat = cfg.Metrics.Histogram("verbs", "rc_completion_ns", "",
		telemetry.Stable, telemetry.LatencyBounds)
	return ctx
}

// Engine returns the simulation engine.
func (ctx *Context) Engine() *sim.Engine { return ctx.eng }

// Fabric returns the underlying fabric.
func (ctx *Context) Fabric() *fabric.Fabric { return ctx.f }

// DMA returns the host's staging-copy DMA engine.
func (ctx *Context) DMA() *DMAEngine { return ctx.dma }

// MTU returns the maximum datagram payload.
func (ctx *Context) MTU() int { return ctx.f.MaxPayload() }

// RegisterMR registers a metadata-only region of the given size.
func (ctx *Context) RegisterMR(size int) *MR {
	return ctx.registerMR(&MR{Size: size})
}

// RegisterMRData registers a region backed by real bytes.
func (ctx *Context) RegisterMRData(buf []byte) *MR {
	return ctx.registerMR(&MR{Size: len(buf), Data: buf})
}

func (ctx *Context) registerMR(mr *MR) *MR {
	ctx.nextKey++
	mr.Key = ctx.nextKey
	ctx.mrs[mr.Key] = mr
	return mr
}

// LookupMR resolves a remote key on this (target) context.
func (ctx *Context) LookupMR(key uint32) (*MR, bool) {
	mr, ok := ctx.mrs[key]
	return mr, ok
}

// QP is a queue pair bound to a context.
type QP struct {
	N         QPN
	Transport Transport
	ctx       *Context
	sendCQ    *CQ
	recvCQ    *CQ

	rq      []recvWQE
	rqDepth int

	// UC/RC connection state.
	peer      Addr
	connected bool

	// RC sender-side reliability state.
	pending map[uint64]*rcPending
	// Receiver-side reassembly for multi-packet messages (UC and RC).
	assembly map[assemblyKey]*assemblyState
	// completedRC remembers delivered reliable messages so that a
	// retransmission racing its own ack is re-acked, not re-delivered
	// (the software analogue of the RC PSN window).
	completedRC map[assemblyKey]bool

	// Stats
	RNRDrops     uint64 // two-sided arrivals dropped for lack of a recv WQE
	UCMsgDropped uint64 // UC messages discarded due to a lost packet
	Retransmits  uint64 // RC segment retransmissions
}

// NewQP creates a queue pair. sendCQ and recvCQ may be the same CQ.
func (ctx *Context) NewQP(t Transport, sendCQ, recvCQ *CQ, rqDepth int) *QP {
	if rqDepth <= 0 {
		rqDepth = ctx.cfg.RQDepth
	}
	ctx.nextQPN++
	qp := &QP{
		N:           ctx.nextQPN,
		Transport:   t,
		ctx:         ctx,
		sendCQ:      sendCQ,
		recvCQ:      recvCQ,
		rqDepth:     rqDepth,
		pending:     make(map[uint64]*rcPending),
		assembly:    make(map[assemblyKey]*assemblyState),
		completedRC: make(map[assemblyKey]bool),
	}
	ctx.qps[qp.N] = qp
	return qp
}

// Connect binds a UC/RC QP to its remote peer. UD QPs are connectionless
// and must not be connected.
func (qp *QP) Connect(peer Addr) {
	if qp.Transport == UD {
		panic("verbs: Connect on UD QP")
	}
	if peer.IsMulticast() && qp.Transport != UC {
		panic("verbs: multicast connection only supported by the UC extension")
	}
	qp.peer = peer
	qp.connected = true
}

// AttachMcast subscribes the QP (UD, or UC under the paper's extension) to
// a multicast group: incoming datagrams for the group are steered to it.
func (qp *QP) AttachMcast(g fabric.GroupID) error {
	if qp.Transport == RC {
		return fmt.Errorf("verbs: RC transport does not support multicast")
	}
	if err := qp.ctx.nic.AttachGroup(g); err != nil {
		return err
	}
	ctx := qp.ctx
	for _, q := range ctx.mcast[g] {
		if q == qp {
			return nil
		}
	}
	ctx.mcast[g] = append(ctx.mcast[g], qp)
	return nil
}

// PostRecv posts one receive WQE. For UD each WQE absorbs one datagram;
// for RC sends it absorbs one message. Returns false when the RQ is full.
func (qp *QP) PostRecv(wrID uint64, mr *MR, offset, length int) bool {
	if len(qp.rq) >= qp.rqDepth {
		return false
	}
	qp.rq = append(qp.rq, recvWQE{wrID: wrID, mr: mr, offset: offset, length: length})
	return true
}

// RQLen returns the number of posted, unconsumed receives.
func (qp *QP) RQLen() int { return len(qp.rq) }

func (qp *QP) popRecv() (recvWQE, bool) {
	if len(qp.rq) == 0 {
		return recvWQE{}, false
	}
	w := qp.rq[0]
	qp.rq = qp.rq[1:]
	return w, true
}

// --- wire format ------------------------------------------------------------

type wireOp uint8

const (
	wireSendUD   wireOp = iota
	wireWrite           // UC/RC write segment
	wireSendRC          // RC two-sided send segment
	wireAck             // RC message acknowledgement
	wireReadReq         // RC read request
	wireReadResp        // RC read response segment
)

type wireMsg struct {
	op       wireOp
	srcQPN   QPN
	dstQPN   QPN
	msgID    uint64
	seg      int // segment index within the message
	nsegs    int
	rkey     uint32 // target MR for writes / read source
	roffset  int    // target offset for writes / read source offset
	imm      uint32
	hasImm   bool
	data     []byte // nil in metadata-only mode
	dataLen  int
	readLen  int // read request: bytes wanted
	ackBytes int
}

func (ctx *Context) allocMsgID() uint64 {
	ctx.nextMsgID++
	return ctx.nextMsgID
}

// inject wraps a wire message into a fabric packet and transmits it,
// returning the wire-serialization completion time on the host uplink.
func (ctx *Context) inject(dst Addr, m *wireMsg, payloadBytes int, flow uint64) sim.Time {
	pkt := &fabric.Packet{
		Dst:          dst.Host,
		Group:        dst.Group,
		Flow:         flow,
		Payload:      m,
		PayloadBytes: payloadBytes,
	}
	if !dst.IsMulticast() {
		pkt.Group = fabric.NoGroup
	}
	return ctx.nic.Inject(pkt)
}

// dispatch routes an arriving packet to the destination QP(s).
func (ctx *Context) dispatch(pkt *fabric.Packet) {
	m := pkt.Payload.(*wireMsg)
	if pkt.Group != fabric.NoGroup {
		for _, qp := range ctx.mcast[pkt.Group] {
			qp.receive(pkt, m)
		}
		return
	}
	qp, ok := ctx.qps[m.dstQPN]
	if !ok {
		return // stale packet to a destroyed QP: silently dropped, as in IB
	}
	qp.receive(pkt, m)
}
