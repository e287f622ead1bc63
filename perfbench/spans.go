package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records host-time spans in memory around the benchmark's calls
// into each layer and writes them once, at the end, in the Chrome trace
// event format Perfetto loads. A nil *tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int  // open spans of the main goroutine, innermost last
	lanes []bool // busy worker lanes; lane 0 is the main goroutine
}

type span struct {
	name       string
	id, parent int
	lane       int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: []bool{true}} }

// begin opens a span on the main goroutine, nested in the innermost open
// one, and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(name, parent, 0)
	t.stack = append(t.stack, id)
	return id
}

// beginLane opens a span on a concurrent worker: it lands on the lowest
// lane no other open worker span holds, under an explicit parent.
func (t *tracer) beginLane(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 1
	for lane < len(t.lanes) && t.lanes[lane] {
		lane++
	}
	if lane == len(t.lanes) {
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	return t.open(name, parent, lane)
}

func (t *tracer) open(name string, parent, lane int) int {
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, lane: lane, start: time.Now()})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = time.Now()
	if s.lane > 0 {
		t.lanes[s.lane] = false
	} else if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one complete ("X") event of the Chrome trace format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writePerfetto writes every span as a complete event (times in µs since
// the tracer started), with its id and parent id as arguments.
func (t *tracer) writePerfetto(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, 0, len(t.spans)+len(t.lanes))
	for lane := range t.lanes {
		name := "benchmark"
		if lane > 0 {
			name = "sweep worker lane"
		}
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
