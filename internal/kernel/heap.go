package kernel

import "slices"

// Heap is a small generic binary min-heap, replacing the pre-generics
// container/heap Push/Pop boilerplate that the search packages used to
// carry. The ordering is supplied at construction; ties keep the sift
// order deterministic given a deterministic operation sequence, which the
// concurrent kernel relies on.
type Heap[T any] struct {
	data []T
	less func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Grow makes room for n more elements, so that pushing them does not
// reallocate the backing storage along the way.
func (h *Heap[T]) Grow(n int) { h.data = slices.Grow(h.data, n) }

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.data) }

// Peek returns the minimum element without removing it. It panics on an
// empty heap, like indexing an empty slice would.
func (h *Heap[T]) Peek() T { return h.data[0] }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.data = append(h.data, v)
	h.up(len(h.data) - 1)
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop() T {
	n := len(h.data) - 1
	h.data[0], h.data[n] = h.data[n], h.data[0]
	v := h.data[n]
	var zero T
	h.data[n] = zero // release references held by the vacated slot
	h.data = h.data[:n]
	if n > 0 {
		h.down(0)
	}
	return v
}

// Reset empties the heap, keeping its backing storage.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.data {
		h.data[i] = zero
	}
	h.data = h.data[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.data[i], h.data[parent]) {
			break
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.data[l], h.data[m]) {
			m = l
		}
		if r < n && h.less(h.data[r], h.data[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.data[i], h.data[m] = h.data[m], h.data[i]
		i = m
	}
}
