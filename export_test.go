package asrs

import (
	"context"
	"fmt"

	"asrs/internal/dssearch"
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

// RoundPlan is what one round of a request read: the plan its driver
// compiled, the plan of the GI-DS session or DS-Search request the round
// ran in, and the pyramid the compiled plan reads.
type RoundPlan struct {
	Compiled, Read *dssearch.Plan
	Pyramid        *Pyramid
}

// AnswerPlans is Answer, returning with the response what each of its
// rounds read.
func AnswerPlans(ds *Dataset, idx *Index, req QueryRequest) (QueryResponse, []RoundPlan) {
	d := openDriver(ds, idx, req, max(req.TopK, 1))
	defer d.close()
	var plans []RoundPlan
	regions, results, err := Greedy(req.TopK, req.Exclude, func(excl []Rect) (Rect, Result, error) {
		region, res, err := d.round(excl)
		rp := RoundPlan{Compiled: d.plan, Read: d.gids.Plan(), Pyramid: d.plan.Pyramid()}
		if !d.indexed {
			rp.Read = d.plain.Plan()
		}
		plans = append(plans, rp)
		return region, res, err
	})
	return QueryResponse{Regions: regions, Results: results, Err: err}, plans
}

// Plan returns the plan the rounds' driver compiled when the first round
// opened it, nil before and after Close.
func (r *Rounds) Plan() *dssearch.Plan { return r.d.plan }
