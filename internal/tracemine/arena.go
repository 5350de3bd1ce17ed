package tracemine

// Arena block sizes, in elements: blocks double from the smallest to the
// largest, so a short stream allocates little and a long one allocates a
// few large blocks instead of one small slice per list.
const (
	minArenaBlock = 64
	maxArenaBlock = 4096
)

// arena carves many short lists out of shared blocks. A list is either
// built one element at a time as the open run (push, then seal) or
// reserved whole (take). Every list it hands out has cap == len, so
// appending to one copies it out instead of writing into its neighbour.
type arena[T any] struct {
	block []T // len(block) is the carved prefix plus the open run
	start int // first element of the open run
}

// push appends *v to the open run, moving the run to a new block when the
// current one is full.
func (a *arena[T]) push(v *T) {
	if len(a.block) == cap(a.block) {
		a.grow(1)
	}
	a.block = append(a.block, *v)
}

// open returns the open run so far.
func (a *arena[T]) open() []T { return a.block[a.start:] }

// seal closes the open run and returns it, nil when it is empty.
func (a *arena[T]) seal() []T {
	n := len(a.block)
	if a.start == n {
		return nil
	}
	run := a.block[a.start:n:n]
	a.start = n
	return run
}

// take returns an empty list with room for exactly n appends, nil when n is
// 0. It must not be called while a run is open.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(a.block)-len(a.block) < n {
		a.grow(n)
	}
	l := len(a.block)
	a.block = a.block[:l+n]
	a.start = l + n
	return a.block[l : l : l+n]
}

// grow replaces the block with a larger one holding the open run and room
// for n more elements. The old block stays alive through the lists already
// carved from it.
func (a *arena[T]) grow(n int) {
	run := a.open()
	size := min(max(2*cap(a.block), minArenaBlock), maxArenaBlock)
	size = max(size, 2*len(run)+n)
	block := make([]T, len(run), size)
	copy(block, run)
	a.block, a.start = block, 0
}
