package sim

import (
	"testing"
	"testing/quick"
)

// funcHandler runs the func carried as each event's payload, so the tests
// below can schedule plain callbacks.
type funcHandler struct{}

func (funcHandler) OnEvent(_ *Engine, _ Handle, _ uint64, _ int, obj any) { obj.(func())() }

// at schedules fn at absolute time t.
func at(e *Engine, t Time, fn func()) Handle { return e.AtHandler(t, funcHandler{}, 0, 0, fn) }

// after schedules fn d from now.
func after(e *Engine, d Time, fn func()) Handle { return e.AfterHandler(d, funcHandler{}, 0, 0, fn) }

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine Now() = %v, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	at(e, 30, func() { order = append(order, 3) })
	at(e, 10, func() { order = append(order, 1) })
	at(e, 20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		at(e, 42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	after(e, 5*Microsecond, func() { fired = e.Now() })
	e.Run()
	if fired != 5*Microsecond {
		t.Fatalf("event fired at %v, want 5µs", fired)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("final time %v, want 5µs", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	at(e, 10, func() {
		times = append(times, e.Now())
		after(e, 15, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 25 {
		t.Fatalf("times = %v, want [10 25]", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := at(e, 10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Active() {
		t.Fatal("Active() = true after Cancel")
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	// Interleave keepers and victims so removal has to fix up the heap
	// interior, not just the root or tail.
	var victims []Handle
	for i := 0; i < 10; i++ {
		when := Time(10 + 10*i)
		if i%2 == 0 {
			victims = append(victims, at(e, when, func() { t.Errorf("cancelled event at %v fired", when) }))
		} else {
			at(e, when, func() {})
		}
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d before cancel, want 10", got)
	}
	for i, ev := range victims {
		ev.Cancel()
		if got, want := e.Pending(), 10-(i+1); got != want {
			t.Fatalf("Pending = %d after cancelling %d events, want %d (cancel must remove immediately)", got, i+1, want)
		}
	}
	// Double-cancel and post-run cancel stay no-ops.
	victims[0].Cancel()
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d after double cancel, want 5", got)
	}
	e.Run()
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want the 5 surviving events", e.Executed)
	}
	victims[1].Cancel()
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := at(e, 20, func() { fired = true })
	at(e, 10, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	at(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, 5, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, when := range []Time{10, 20, 30, 40} {
		at(e, when, func() { fired = append(fired, when) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
	// Monotonic across successive calls.
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Fatalf("RunUntil moved the clock backwards to %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	at(e, 10, func() { count++; e.Stop() })
	at(e, 20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the run: count = %d", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("second Run did not resume: count = %d", count)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		at(e, Time(i), func() {})
	}
	e.Run()
	if e.Executed != 7 {
		t.Fatalf("Executed = %d, want 7", e.Executed)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine(12345)
		var fired []Time
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 50 {
				return
			}
			n++
			d := Time(e.RNG().Intn(1000) + 1)
			after(e, d, func() {
				fired = append(fired, e.Now())
				schedule()
			})
		}
		schedule()
		e.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros() = %v", (3 * Microsecond).Micros())
	}
	if Millisecond.Duration().Milliseconds() != 1 {
		t.Errorf("Duration() = %v", Millisecond.Duration())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the scheduling pattern.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16, seed uint64) bool {
		e := NewEngine(seed)
		var fired []Time
		for _, d := range delays {
			after(e, Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.23 || rate > 0.27 {
		t.Fatalf("Bernoulli(0.25) empirical rate %v", rate)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	child := parent.Split()
	// The child stream must not be identical to the parent's continuation.
	same := true
	for i := 0; i < 16; i++ {
		if parent.Uint64() != child.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Split produced a correlated stream")
	}
}
