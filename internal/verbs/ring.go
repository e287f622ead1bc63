package verbs

// ring is a FIFO queue over a power-of-two circular buffer: the receive
// queue of a QP and the entries of a CQ. It doubles only when full, so its
// size settles at the queue's high-water mark and a steady push/pop cycle
// allocates nothing; pop zeroes the vacated slot, so the buffer never pins
// an *MR (or anything else) it no longer holds.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// grow doubles the buffer (minimum 8 slots), unwrapping the queue to start
// at slot 0.
func (r *ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 8))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
