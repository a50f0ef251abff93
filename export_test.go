package asrs

import (
	"context"
	"fmt"
)

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

// GeometryFolds reports how many epoch geometries the engine folded from
// the previous epoch's: one per epoch, whichever composites the epoch
// builds pyramids for.
func (e *Engine) GeometryFolds() int64 { return e.nGeoFolds.Load() }

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

// SelfChecked is the error of a request whose rounds' answers failed
// their self-check (dssearch.Searcher.Settle): every answer a search hands
// out is re-evaluated at its point, and the distance must be the one the
// search ranked it by.
func SelfChecked(st IndexStats) error {
	if n := st.DS.SelfCheckMisses; n != 0 {
		return fmt.Errorf("asrs: %d answers re-evaluated to another distance", n)
	}
	return nil
}
