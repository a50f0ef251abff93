// Ablation benchmark for the grid granularity, beyond the range the
// paper's Fig 9 plots.
package asrs_test

import (
	"fmt"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// BenchmarkAblationGranularity complements Fig 9 with the extreme grid
// choices the paper does not plot: F1 on Tweet 20k, a 10-unit region.
func BenchmarkAblationGranularity(b *testing.B) {
	ds := tweetDS(20000)
	qa, qb := sizeK(ds, 10)
	q, err := dataset.F1(ds, qa, qb)
	if err != nil {
		b.Fatal(err)
	}
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
