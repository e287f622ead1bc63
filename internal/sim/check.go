package sim

import "fmt"

// CheckQueue verifies the hybrid queue's bookkeeping and returns the first
// violation it finds, or nil. Every queued event must record the region
// (where) and heap slot (index) it really occupies and lie in the bucket
// its time maps to; both heaps must be ordered; each bucket must hold its
// equal-at events in seq order, the invariant openBucket's counting sort
// relies on; and nearCount and the live count must match the contents. It
// costs O(queued events) and exists for tests, which run it after Restore
// and after rewinding model state captured alongside a Snapshot.
func (e *Engine) CheckQueue() error {
	near, live := 0, 0
	lastSeq := map[Time]uint64{}
	for i, b := range e.buckets {
		open := e.opened && i == e.cursor
		clear(lastSeq)
		for j, ev := range b {
			consumed := open && j < e.pos
			if ev == nil {
				if !consumed {
					return fmt.Errorf("bucket[%d][%d]: nil entry outside the consumed prefix", i, j)
				}
				continue
			}
			if consumed {
				return fmt.Errorf("bucket[%d][%d]: entry left in the consumed prefix", i, j)
			}
			if ev.where != locBucket {
				return fmt.Errorf("bucket[%d][%d]: where=%d", i, j, ev.where)
			}
			if ev.at < e.base || int((ev.at-e.base)>>bucketShift) != i {
				return fmt.Errorf("bucket[%d][%d]: at=%d outside the bucket (base %d)", i, j, ev.at, e.base)
			}
			if last, ok := lastSeq[ev.at]; ok && last > ev.seq {
				return fmt.Errorf("bucket[%d][%d]: seq %d after seq %d at the same time %d", i, j, ev.seq, last, ev.at)
			}
			lastSeq[ev.at] = ev.seq
			if open && j > e.pos && before(ev, b[j-1]) {
				return fmt.Errorf("bucket[%d][%d]: open bucket out of (at, seq) order", i, j)
			}
			near++
			if !ev.canceled {
				live++
			}
		}
	}
	if err := checkHeap("cur", e.cur, locCur, false); err != nil {
		return err
	}
	for i, ev := range e.cur {
		if !e.opened || int((ev.at-e.base)>>bucketShift) != e.cursor {
			return fmt.Errorf("cur[%d]: at=%d outside the open bucket %d", i, ev.at, e.cursor)
		}
	}
	// rebase moves cancelled bucket entries to the far heap along with the
	// live ones; refill later brings them back to a bucket sweep.
	if err := checkHeap("far", e.far, locFar, true); err != nil {
		return err
	}
	for i, ev := range e.far {
		if ev.at-e.base < windowSpan {
			return fmt.Errorf("far[%d]: at=%d inside the window (base %d)", i, ev.at, e.base)
		}
	}
	near += len(e.cur)
	live += len(e.cur)
	for _, ev := range e.far {
		if !ev.canceled {
			live++
		}
	}
	if near != e.nearCount {
		return fmt.Errorf("nearCount=%d, buckets and cur hold %d", e.nearCount, near)
	}
	if live != e.live {
		return fmt.Errorf("live=%d, queue holds %d live events", e.live, live)
	}
	return nil
}

// checkHeap verifies one (at, seq) heap: slot bookkeeping, the heap order,
// and, unless canceledOK, no cancelled entries.
func checkHeap(name string, h eventHeap, where int8, canceledOK bool) error {
	for i, ev := range h {
		if ev.where != where || ev.index != i {
			return fmt.Errorf("%s[%d]: where=%d index=%d", name, i, ev.where, ev.index)
		}
		if ev.canceled && !canceledOK {
			return fmt.Errorf("%s[%d]: cancelled entry", name, i)
		}
		if i > 0 && before(ev, h[(i-1)/2]) {
			return fmt.Errorf("%s[%d]: heap order violated", name, i)
		}
	}
	return nil
}
