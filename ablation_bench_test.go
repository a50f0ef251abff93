// Ablation benchmarks for the design choices DESIGN.md calls out beyond
// the paper's pseudocode: the subset-enumeration refinement of dirty-cell
// lower bounds, which preserves exactness (this bench quantifies what it
// buys), and the grid granularity.
package asrs_test

import (
	"fmt"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

func ablationWorkload(b *testing.B) (*asrs.Dataset, asrs.Query, float64, float64) {
	b.Helper()
	ds := tweetDS(20000)
	qa, qb := sizeK(ds, 10)
	q, err := dataset.F1(ds, qa, qb)
	if err != nil {
		b.Fatal(err)
	}
	return ds, q, qa, qb
}

func BenchmarkAblationRefinement(b *testing.B) {
	ds, q, qa, qb := ablationWorkload(b)
	for _, disabled := range []bool{false, true} {
		name := "refinement=on"
		if disabled {
			name = "refinement=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{DisableRefinement: disabled})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity complements Fig 9 with the extreme grid
// choices the paper does not plot.
func BenchmarkAblationGranularity(b *testing.B) {
	ds, q, qa, qb := ablationWorkload(b)
	for _, g := range []int{10, 30, 100} {
		b.Run(fmt.Sprintf("grid=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{NCol: g, NRow: g})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
