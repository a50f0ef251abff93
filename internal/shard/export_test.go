package shard

import (
	"context"

	"asrs"
)

// WithoutBoundShare returns the options with the cross-shard shared
// pruning cap turned off: the oracle side of the router property tests.
func (o RouterOptions) WithoutBoundShare() RouterOptions {
	o.disableBoundShare = true
	return o
}

// BandCorpus is the corpus a straddling query's band over win reads for
// the composite, every shard admitted.
func (r *Router) BandCorpus(win asrs.Rect, f *asrs.Composite) *asrs.Dataset {
	admitted := make([]bool, len(r.cat.shards))
	for i := range admitted {
		admitted[i] = true
	}
	ds, _, _, _ := r.Open(context.Background(), "").bandCorpus(win, f, admitted)
	return ds
}
