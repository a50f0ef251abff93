package kernel

import "slices"

// Heap is a binary min-heap; ties pop in an order fixed by the operations.
type Heap[T any] struct {
	data []T
	less func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] { return &Heap[T]{less: less} }

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.data) }

// Peek returns the minimum element; it panics on an empty heap.
func (h *Heap[T]) Peek() T { return h.data[0] }

// Reset empties the heap, keeping its storage and dropping its references.
func (h *Heap[T]) Reset() { h.data = slices.Delete(h.data, 0, len(h.data)) }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.data = append(h.data, v)
	for i := len(h.data) - 1; i > 0 && h.less(h.data[i], h.data[(i-1)/2]); i = (i - 1) / 2 {
		h.data[i], h.data[(i-1)/2] = h.data[(i-1)/2], h.data[i]
	}
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop() T {
	d, n := h.data, len(h.data)-1
	v := d[0]
	d[0], d[n] = d[n], *new(T) // the vacated slot drops its references
	h.data = d[:n]
	for i := 0; ; {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && h.less(d[c], d[m]) {
				m = c
			}
		}
		if m == i {
			return v
		}
		d[i], d[m] = d[m], d[i]
		i = m
	}
}
