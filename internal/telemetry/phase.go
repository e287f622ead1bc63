package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Phase names the core protocol records: the execution-flow view of the
// paper's Figure 9 (task posting, RNR synchronization, multicast start and
// finish per rank, recovery actions, final handshake).
const (
	PhaseDispatch   = "dispatch"    // task handed to the app thread
	PhaseBarrier    = "barrier"     // RNR synchronization complete
	PhaseTxStart    = "tx-start"    // multicast injection begins (root)
	PhaseTxDone     = "tx-done"     // all chunks posted and on the wire
	PhaseActivate   = "activate"    // chain token passed to the successor
	PhaseRxDone     = "rx-done"     // every chunk present, copies drained
	PhaseRecovery   = "recovery"    // cutoff fired; fetch request sent
	PhaseFetchServe = "fetch-serve" // served (part of) a neighbor's request
	PhaseFinal      = "final"       // handshake sent to the left neighbor
	PhaseDone       = "done"        // operation complete at this rank
)

// PhaseEvent is one recorded protocol transition.
type PhaseEvent struct {
	T      sim.Time
	Rank   int
	Seq    int // operation sequence number
	Phase  string
	Detail string
}

// Phase records one protocol transition of rank at virtual time t; a no-op
// on a nil registry. Phase events are not metrics: they stay out of the
// Snapshot (and so out of metrics.json) and feed only the Timeline and
// WritePerfetto views.
func (r *Registry) Phase(t sim.Time, rank, seq int, phase, detail string) {
	if r == nil {
		return
	}
	r.phases = append(r.phases, PhaseEvent{T: t, Rank: rank, Seq: seq, Phase: phase, Detail: detail})
}

// PhaseEvents returns every recorded phase event in recording order.
func (r *Registry) PhaseEvents() []PhaseEvent {
	if r == nil {
		return nil
	}
	return r.phases
}

// RankPhases returns rank's phase events in time order.
func (r *Registry) RankPhases(rank int) []PhaseEvent {
	var out []PhaseEvent
	for _, e := range r.PhaseEvents() {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Timeline renders every phase event in time order, one line each — the
// textual equivalent of Figure 9.
func (r *Registry) Timeline() string {
	if len(r.PhaseEvents()) == 0 {
		return "(no events)\n"
	}
	evs := append([]PhaseEvent(nil), r.phases...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%12v  rank %3d  op %3d  %-12s %s\n", e.T, e.Rank, e.Seq, e.Phase, e.Detail)
	}
	return b.String()
}
