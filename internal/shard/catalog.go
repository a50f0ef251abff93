// Package shard promotes one-engine serving to a resilient multi-shard
// tier: a Catalog splits a corpus into region-extent shards, each owning
// its own asrs.Engine and pyramids as an independent fault domain; a
// Router answers extent queries through one scatter runner, either from
// the single shard that contains the extent (bit-identical to a
// merged-corpus run by construction) or by scatter–gather across slab
// sub-extents and boundary bands with a cross-shard shared pruning
// bound. Per-shard circuit breakers and deadline budgets keep the blast
// radius of a sick shard to that shard. See DESIGN.md §11.
package shard

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"asrs"
)

// Config describes how to build a Catalog.
type Config struct {
	// Shards asks for this many equal-population x-slabs (quantile
	// cuts over the seed objects). At least 1; duplicate quantiles
	// collapse, so the realized count can be lower. Ignored when Cuts
	// is set.
	Shards int
	// Cuts lists explicit interior cut x-coordinates, strictly
	// ascending; k cuts make k+1 shards.
	Cuts []float64
	// Engine is the per-shard engine option template. Ingest.WALDir is
	// overridden per shard when WALRoot is set.
	Engine asrs.EngineOptions
	// Composites registers the servable composites, warmed per shard in
	// the order Names gives.
	Composites map[string]*asrs.Composite
	Names      []string
	// PyramidBase is never read: every shard builds its pyramids when it
	// loads, and none is stored. The field stays because callers set it.
	PyramidBase string
	// WALRoot, when non-empty, gives each shard a durable ingest WAL at
	// <WALRoot>/<shard-name>.
	WALRoot string
	// Lazy is never read: a shard's engine (pyramids + WAL recovery) is
	// always built on the first Shard.Engine call, whatever this says,
	// and eager loading is the caller's WarmAll — asrsd warms in the
	// background unless -shard-lazy. The field stays because callers set
	// it.
	Lazy bool
	// Logf, when non-nil, receives operational one-liners (load
	// timings).
	Logf func(format string, args ...any)
}

// Catalog is the shard directory: the x-axis cut points plus one Shard
// per routing slab. Shard i owns objects with x in [cuts[i-1], cuts[i])
// (half-open; the first and last slabs extend to ±infinity), and its
// closed slab [cuts[i-1], cuts[i]] is the routing extent: an extent
// contained in the closed slab can only have answers covering shard-i
// objects, because a region strictly covering an object at x == cuts[i]
// must extend beyond the slab.
type Catalog struct {
	cfg    Config
	seed   *asrs.Dataset
	cuts   []float64
	shards []*Shard
}

// New splits the dataset into shards. The seed dataset is retained (and
// must not be mutated): each shard's seed slab is a slice of it, and a
// session's Dataset leads with it for query-by-example targets.
func New(ds *asrs.Dataset, cfg Config) (*Catalog, error) {
	if ds == nil || ds.Schema == nil {
		return nil, fmt.Errorf("shard: catalog requires a dataset with a schema")
	}
	cuts, err := resolveCuts(ds, cfg)
	if err != nil {
		return nil, err
	}
	c := &Catalog{cfg: cfg, seed: ds, cuts: cuts}
	n := len(cuts) + 1
	parts := make([][]asrs.Object, n)
	for _, o := range ds.Objects {
		i := c.ShardFor(o.Loc.X)
		parts[i] = append(parts[i], o)
	}
	for i := 0; i < n; i++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = cuts[i-1]
		}
		if i < len(cuts) {
			hi = cuts[i]
		}
		seed := &asrs.Dataset{Schema: ds.Schema, Objects: parts[i]}
		sh := &Shard{
			cat:        c,
			index:      i,
			name:       fmt.Sprintf("shard-%d", i),
			lo:         lo,
			hi:         hi,
			seed:       seed,
			seedBounds: seed.Bounds(),
			breaker:    NewBreaker(BreakerConfig{}),
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// resolveCuts returns the interior cuts: explicit (validated) or
// equal-population quantiles over the seed objects' x-coordinates.
func resolveCuts(ds *asrs.Dataset, cfg Config) ([]float64, error) {
	if len(cfg.Cuts) > 0 {
		for i, c := range cfg.Cuts {
			if math.IsNaN(c) {
				return nil, fmt.Errorf("shard: cut %d is NaN", i)
			}
			if i > 0 && c <= cfg.Cuts[i-1] {
				return nil, fmt.Errorf("shard: cuts must be strictly ascending, got %g after %g", c, cfg.Cuts[i-1])
			}
		}
		return append([]float64(nil), cfg.Cuts...), nil
	}
	k := cfg.Shards
	if k <= 0 {
		k = 1
	}
	if k == 1 || len(ds.Objects) == 0 {
		return nil, nil
	}
	xs := make([]float64, len(ds.Objects))
	for i, o := range ds.Objects {
		xs[i] = o.Loc.X
	}
	sort.Float64s(xs)
	var cuts []float64
	for i := 1; i < k; i++ {
		c := xs[i*len(xs)/k]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts, nil
}

// ShardFor returns the index of the shard owning an object at x
// (half-open slabs, lower edge inclusive).
func (c *Catalog) ShardFor(x float64) int {
	return sort.Search(len(c.cuts), func(i int) bool { return c.cuts[i] > x })
}

// Shards lists the catalog's shards in slab order.
func (c *Catalog) Shards() []*Shard { return c.shards }

// Cuts returns the interior cut x-coordinates.
func (c *Catalog) Cuts() []float64 { return c.cuts }

// Schema is the serving schema, the seed corpus's: reading it loads no
// shard.
func (c *Catalog) Schema() *asrs.Schema { return c.seed.Schema }

// SearchOptions returns the catalog's engine-template search options —
// the defaults a serving layer starts from when pinning per-request
// overrides (mirroring Engine.SearchOptions).
func (c *Catalog) SearchOptions() asrs.Options { return c.cfg.Engine.Search }

// WarmAll forces every shard's engine (pyramids, WAL recovery)
// eagerly, in slab order. The first failure is returned but remaining
// shards still warm — one bad shard must not block siblings.
func (c *Catalog) WarmAll() error {
	var first error
	for _, sh := range c.shards {
		if _, err := sh.Engine(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// logf forwards to the configured logger.
func (c *Catalog) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// walDir derives one shard's WAL directory.
func walDir(root, shardName string) string {
	return filepath.Join(root, shardName)
}
