package sweep

// SparseFixture and SparseSpace expose the sparse-strip shape of the
// differential tests (sparseFixture) to the package's benchmarks.
var (
	SparseFixture = sparseFixture
	SparseSpace   = sparseSpace
)
