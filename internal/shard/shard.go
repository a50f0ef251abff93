package shard

import (
	"fmt"
	"sync"
	"time"

	"asrs"
	"asrs/internal/faultinject"
)

// Shard is one fault domain: a contiguous x-slab of the corpus served
// by its own asrs.Engine with private pyramids and (optionally) a
// private ingest WAL. Construction is lazy unless the catalog warms it;
// a failed load is retryable and charged to the shard's breaker, never
// to siblings.
type Shard struct {
	cat   *Catalog
	index int
	name  string
	// lo/hi bound the closed routing slab [lo, hi] (±Inf at the ends).
	// Objects are owned half-open: x in [lo, hi).
	lo, hi float64
	// seed is this shard's slice of the catalog seed corpus, in the seed
	// dataset's original relative order; seedBounds is its bounding box.
	seed       *asrs.Dataset
	seedBounds asrs.Rect
	breaker    *Breaker

	mu  sync.Mutex
	eng *asrs.Engine
}

// Name returns the shard's stable name ("shard-0", "shard-1", …).
func (s *Shard) Name() string { return s.name }

// Index returns the shard's slab position.
func (s *Shard) Index() int { return s.index }

// Slab returns the closed routing slab bounds (±Inf at the ends).
func (s *Shard) Slab() (lo, hi float64) { return s.lo, s.hi }

// Breaker exposes the shard's circuit breaker.
func (s *Shard) Breaker() *Breaker { return s.breaker }

// Loaded returns the engine if it has been constructed, else nil —
// without triggering a load.
func (s *Shard) Loaded() *asrs.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// Engine returns the shard's engine, constructing it on first use:
// NewEngine over the slab corpus (recovering the shard's WAL when
// configured), then every composite's pyramid, on the slab's one
// geometry. It builds no grid index: every routed sub-search is windowed,
// and a windowed request never reads one (an un-windowed call builds it
// lazily). A failure leaves the shard unloaded (the next call retries)
// and is the caller's to classify into the breaker.
func (s *Shard) Engine() (*asrs.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng != nil {
		return s.eng, nil
	}
	if f, ok := faultinject.Check("shard.load.fail"); ok && f.Action == faultinject.ActError {
		return nil, fmt.Errorf("shard %s: load: %w", s.name, f.Err())
	}
	start := time.Now()
	cfg := s.cat.cfg
	opt := cfg.Engine
	if cfg.WALRoot != "" {
		opt.Ingest.WALDir = walDir(cfg.WALRoot, s.name)
	}
	eng, err := asrs.NewEngine(s.seed, opt)
	if err != nil {
		return nil, fmt.Errorf("shard %s: engine: %w", s.name, err)
	}
	for _, name := range cfg.Names {
		f := cfg.Composites[name]
		if f == nil {
			continue
		}
		if _, werr := eng.Pyramid(f); werr != nil {
			eng.Close()
			return nil, fmt.Errorf("shard %s: warm %s: %w", s.name, name, werr)
		}
	}
	s.eng = eng
	s.cat.logf("shard %s: loaded %d objects in %s", s.name, len(s.seed.Objects), time.Since(start).Round(time.Millisecond))
	return eng, nil
}

// Close releases the shard's engine (WAL handles) if loaded.
func (s *Shard) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil {
		return nil
	}
	err := s.eng.Close()
	s.eng = nil
	return err
}

// Close closes every loaded shard, returning the first error.
func (c *Catalog) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
