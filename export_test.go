package asrs

import "context"

// Flights reports the QueryCtx searches in flight on the engine's current
// epoch view and the requests waiting to copy their answers.
func (e *Engine) Flights() (flights, joiners int) {
	v := e.view.Load()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, f := range v.flights {
		joiners += f.joiners
	}
	return len(v.flights), joiners
}

// SlotState reports the engine's free execution slots and the searches
// queued for one.
func (e *Engine) SlotState() (free, queued int) { return (&Slots{&e.slots}).State() }

// Slots exposes the execution-slot queue to its unit test.
type Slots struct{ s *slots }

func NewSlots(n int) *Slots { return &Slots{&slots{free: n}} }

func (s *Slots) Acquire(ctx context.Context) (bool, error) { return s.s.acquire(ctx) }
func (s *Slots) Release()                                  { s.s.release() }

// State reports the free slots and the acquirers waiting for one.
func (s *Slots) State() (free, queued int) {
	s.s.mu.Lock()
	defer s.s.mu.Unlock()
	return s.s.free, len(s.s.queue)
}
