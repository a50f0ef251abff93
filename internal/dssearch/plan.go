package dssearch

import (
	"sync"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
)

// Plan is one request's query compiled once against the pyramid its
// searches read: the pyramid, the query, and its Equation 1 bound and
// score compiled against the pyramid's limbs (agg.Plan). Every searcher
// of the request's rounds only reads it (NewRegionSearcher): pass 2 bounds
// dirty cells by its bound, clean cells and centre probes are scored by
// its score, the sweep solver is bound to it for its strip bounds and
// interval scores, and a GI-DS session bounds index cells by its bound.
type Plan struct {
	pyr *Pyramid
	q   asp.Query
	c   agg.Plan
}

// Compile resolves the pyramid a request over ds reads — pyr when it was
// built for ds and q's composite, else a one-shot pyramid built over ds —
// validates q and compiles it against that pyramid's limbs, into plan
// storage recycled from released plans.
func Compile(ds *attr.Dataset, q asp.Query, pyr *Pyramid) (pl *Plan, err error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !pyr.Matches(ds, q.F) {
		if pyr, err = BuildPyramidOn(newGeometry(ds), q.F); err != nil {
			return nil, err
		}
	}
	scratch.Lock()
	if n := len(scratch.plans); n > 0 {
		scratch.plans, pl = pop(scratch.plans, n-1)
	} else {
		pl = new(Plan)
	}
	scratch.Unlock()
	pl.pyr, pl.q = pyr, q
	pl.c.Compile(q.F, &pyr.core.limbs, q.Norm, q.Target, q.W)
	return pl, nil
}

// Release hands the plan's storage back for a later Compile, dropping the
// pyramid and the query: a released plan keeps neither alive. Neither the
// plan nor a searcher reading it may be used afterwards; a nil plan is a
// no-op.
func (pl *Plan) Release() {
	if pl == nil {
		return
	}
	pl.pyr, pl.q = nil, asp.Query{}
	scratch.Lock()
	defer scratch.Unlock()
	scratch.plans = append(scratch.plans, pl)
}

// Query returns the compiled query.
func (pl *Plan) Query() asp.Query { return pl.q }

// Pyramid returns the pyramid the plan's searches read.
func (pl *Plan) Pyramid() *Pyramid { return pl.pyr }

// Bound returns the query's compiled Equation 1 bound.
func (pl *Plan) Bound() *agg.BoundPlan { return &pl.c.Bound }

// scratch is the process's one free list of search scratch: the slabs
// released searchers hand back (Searcher.Release) and the storage of
// released plans. It keeps everything handed back, so it never holds more
// slabs than searches ran at once, nor more plans than requests did. It
// is a list under a mutex, not a sync.Pool, which every garbage collection
// empties: a steady state would rebuild its scratch after each.
var scratch struct {
	sync.Mutex
	slabs []*slab
	plans []*Plan
}

// takeSlab hands out a released slab whose grid was built for shape
// before any other, then any other, then a fresh one.
func takeSlab(shape gridShape) (t *slab) {
	scratch.Lock()
	defer scratch.Unlock()
	if len(scratch.slabs) == 0 {
		return &slab{}
	}
	k := len(scratch.slabs) - 1
	for i, t := range scratch.slabs {
		if t.shape == shape {
			k = i
		}
	}
	scratch.slabs, t = pop(scratch.slabs, k)
	return t
}

// pop removes item k of list, moving the last item into its place.
func pop[T any](list []*T, k int) ([]*T, *T) {
	t, last := list[k], len(list)-1
	list[k], list[last] = list[last], nil
	return list[:last], t
}

// noLimbs is the empty layout a released slab's solver is left on.
var noLimbs agg.Limbs
