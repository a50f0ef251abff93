// Strip-evaluator cost model for the mini-sweep (DESIGN.md §8): the
// per-unit weights internal/sweep's StripAuto selection uses to choose,
// per solve and per strip, between the flat prefix-scan evaluator and
// the Fenwick tree. The weights are profiled constants, the inputs are
// deterministic shape quantities, and the choice can never change
// answers — only speed.
package dssearch

import "asrs/internal/sweep"

// stripCostModel returns the weights DS-Search installs on its pooled
// mini-sweep solvers. Relative to one flat prefix step (a sequential
// load-add the prefetcher hides, priced below a full unit):
//
//   - a Fenwick RangeAdd level is ~2.5 flat units: two tree traversals
//     of strided, cache-hostile read-modify-writes, paid per
//     contribution per log2(k) level;
//   - a Fenwick PointInto level is ~1 unit per channel: the walk reads
//     log2(k) scattered rows but folds whole channel vectors;
//   - a difference-array update is ~2 units: two scattered writes, but
//     paid once per contribution instead of per level.
//
// The constants were fit on a warm batched workload (30×30
// grids, 5-channel composites, mini-sweeps of 48..2048 rects) and only
// their ratios matter; they bias toward the flat evaluator for the
// dense dirty sets the safety net produces, which is where the measured
// crossover sits.
func stripCostModel() sweep.StripCost {
	return sweep.StripCost{
		TreeUpdate: 2.5,
		TreeProbe:  1.0,
		FlatStep:   0.35,
		DiffUpdate: 2.0,
	}
}
