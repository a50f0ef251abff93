// Command asrsd is the ASRS serving daemon: an HTTP JSON API over
// asrs.Engine (or a shard router) that searches each request on the
// goroutine that received it (a request identical to one already in
// flight joins it, searches beyond the machine's cores queue in arrival
// order), sheds load beyond a bounded in-flight queue, and enforces
// per-query deadlines at the engine's cancellation points — the slot
// queue, the join wait and each space the kernel pops. See DESIGN.md §7 for
// the architecture.
//
// Usage:
//
//	asrsd -dataset singapore -addr :8080
//	asrsd -dataset tweet -n 200000 -queue 512
//	asrsd -dataset singapore -wal-dir /var/lib/asrs/wal  # durable streaming ingest
//	asrsd -dataset singapore -shards 4                   # multi-shard serving (scatter–gather router)
//	asrsd -shards 4 -partial best_effort -shard-lazy     # partial answers; shards load on first traffic
//
//	curl -s localhost:8080/healthz                       # liveness (always 200 while serving HTTP)
//	curl -s localhost:8080/readyz                        # routing signal (503 while warming/draining)
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/v1/query -d '{
//	  "composite": "category",
//	  "region": {"min_x":103.827,"min_y":1.298,"max_x":103.843,"max_y":1.310},
//	  "exclude_region": true}'
//	curl -s -X POST localhost:8080/v1/insert -d '{
//	  "objects": [{"x":103.84,"y":1.30,"values":{"category":"Food"}}]}'
//	curl -s -X POST localhost:8080/v1/search -d '{
//	  "q": "find top 2 similar to region(103.827,1.298,103.843,1.310) under @category excluding example"}'
//
// /v1/search is the query-language front door (README "Query language",
// DESIGN.md §12): expressions compile to the same engine requests as
// /v1/query — bit-identical answers — and results stream back as
// NDJSON, one row per answer as each greedy round finishes. Prefix the
// query with "explain" to get the compiled plan instead of results.
//
// Multi-shard mode (-shards N or -shard-cuts) splits the corpus into
// x-slab shards, each its own engine/pyramid/WAL fault domain behind a
// circuit breaker; extent queries route to one shard when possible and
// scatter–gather otherwise. The listener opens before the shards warm —
// /readyz reports 503 "warming" until they have — and a shard that fails
// to load is isolated by its breaker without blocking siblings.
//
// Every boot builds each composite's aggregate pyramid in memory (Warm);
// no pyramid is stored. -pyramid is inert.
//
// SIGTERM/SIGINT starts a graceful drain: /readyz flips to 503, new
// queries are refused, and in-flight searches get a grace period before
// cooperative cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
	"asrs/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dsName     = flag.String("dataset", "singapore", "singapore | tweet | poisyn")
		n          = flag.Int("n", 0, "corpus cardinality (0 = dataset default)")
		seed       = flag.Int64("seed", 42, "dataset seed")
		_          = flag.Int("workers", 0, "inert: each search runs on its request's goroutine; kept for scripts that pass it")
		grid       = flag.Int("grid", 64, "grid index granularity (0 disables GI-DS)")
		queue      = flag.Int("queue", server.DefaultMaxInFlight, "admission bound: max in-flight requests before 429 load shedding")
		_          = flag.String("pyramid", "", "inert: every boot builds its pyramids in memory; kept for scripts that pass it")
		timeout    = flag.Duration("timeout", server.DefaultTimeout, "default per-query deadline")
		maxTimeout = flag.Duration("max-timeout", server.DefaultMaxTimeout, "upper clamp on client-chosen timeout_ms")
		grace      = flag.Duration("grace", 30*time.Second, "drain grace period after SIGTERM before in-flight searches are cancelled")
		verbose    = flag.Bool("verbose", false, "log one line per request")
		walDir     = flag.String("wal-dir", "", "streaming-ingest WAL directory: POST /v1/insert becomes durable and acknowledged inserts survive a crash (empty = memory-only ingest); in shard mode each shard gets <wal-dir>/<shard-name>")
		walSync    = flag.String("wal-sync", "always", "WAL sync policy: always (fsync per insert), batch (fsync per insert batch), never (OS flushes)")
		_          = flag.Int("compact-at", 0, "inert: the WAL is the only durable form of ingested objects and nothing compacts it; kept for scripts that pass it")
		shards     = flag.Int("shards", 0, "split the corpus into this many equal-population x-slab shards behind the scatter–gather router (0 = single-engine mode)")
		shardCuts  = flag.String("shard-cuts", "", "explicit comma-separated interior shard cut x-coordinates, strictly ascending (overrides -shards; k cuts make k+1 shards)")
		partial    = flag.String("partial", "", "default partial-result policy for routed queries: strict (fail when a needed shard is down) or best_effort (answer from survivors, report skips); shard mode only")
		shardLazy  = flag.Bool("shard-lazy", false, "defer shard engine loads to first traffic instead of warming all shards in the background at boot")
	)
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, dsName: *dsName, n: *n, seed: *seed,
		grid: *grid, queue: *queue,
		timeout: *timeout, maxTimeout: *maxTimeout,
		grace: *grace, verbose: *verbose, walDir: *walDir, walSync: *walSync,
		shards: *shards, shardCuts: *shardCuts,
		partial: *partial, shardLazy: *shardLazy,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "asrsd:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags.
type runConfig struct {
	addr, dsName        string
	n                   int
	seed                int64
	grid                int
	queue               int
	timeout, maxTimeout time.Duration
	grace               time.Duration
	verbose             bool
	walDir, walSync     string
	shards              int
	shardCuts, partial  string
	shardLazy           bool
}

// parseCuts parses the -shard-cuts list.
func parseCuts(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	cuts := make([]float64, 0, len(parts))
	for _, p := range parts {
		c, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -shard-cuts entry %q: %w", p, err)
		}
		cuts = append(cuts, c)
	}
	return cuts, nil
}

// buildServing constructs the dataset and its composite registry, the
// composite names in warm order.
func buildServing(dsName string, n int, seed int64) (*asrs.Dataset, map[string]*asrs.Composite, []string, error) {
	switch dsName {
	case "singapore":
		if n <= 0 {
			n = dataset.SingaporePOICount
		}
		ds := dataset.SingaporeScaled(n, seed)
		cat, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
		if err != nil {
			return nil, nil, nil, err
		}
		poi, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
			asrs.AggSpec{Kind: asrs.Count},
		)
		if err != nil {
			return nil, nil, nil, err
		}
		return ds, map[string]*asrs.Composite{"category": cat, "poi": poi}, []string{"category", "poi"}, nil
	case "tweet":
		if n <= 0 {
			n = 100000
		}
		ds := dataset.Tweet(n, seed)
		day, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "day"})
		if err != nil {
			return nil, nil, nil, err
		}
		return ds, map[string]*asrs.Composite{"day": day}, []string{"day"}, nil
	case "poisyn":
		if n <= 0 {
			n = 100000
		}
		ds := dataset.POISyn(n, seed)
		f2, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
			asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
		)
		if err != nil {
			return nil, nil, nil, err
		}
		return ds, map[string]*asrs.Composite{"f2": f2}, []string{"f2"}, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown dataset %q", dsName)
}

// Connection-level timeouts. Admission (MaxInFlight) is taken in the
// handler, so a socket that never finishes its request headers, or sits
// idle between requests, is invisible to it and must be bounded here.
// There is deliberately no ReadTimeout or WriteTimeout: an admitted
// request's body read is bounded by the per-query -timeout in the handler,
// and a search, a streamed /v1/search above all, by its own deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's http.Server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(rc runConfig) error {
	ds, composites, names, err := buildServing(rc.dsName, rc.n, rc.seed)
	if err != nil {
		return err
	}
	log.Printf("dataset: %s, %d objects, composites %v", rc.dsName, len(ds.Objects), names)

	syncPolicy, err := asrs.ParseSyncPolicy(rc.walSync)
	if err != nil {
		return err
	}
	engOpts := asrs.EngineOptions{
		IndexGranularity: rc.grid,
		Ingest: asrs.IngestOptions{
			WALDir: rc.walDir,
			Sync:   syncPolicy,
		},
	}
	cuts, err := parseCuts(rc.shardCuts)
	if err != nil {
		return err
	}
	sharded := rc.shards > 0 || len(cuts) > 0

	scfg := server.Config{
		Composites:  composites,
		MaxInFlight: rc.queue,
		Timeout:     rc.timeout,
		MaxTimeout:  rc.maxTimeout,
	}
	var eng *asrs.Engine   // engine mode
	var cat *shard.Catalog // shard mode
	if sharded {
		// Per-shard engines own their fault domains: WALs under
		// <wal-dir>/<shard-name>.
		engOpts.Ingest.WALDir = ""
		cat, err = shard.New(ds, shard.Config{
			Shards:     rc.shards,
			Cuts:       cuts,
			Engine:     engOpts,
			Composites: composites,
			Names:      names,
			WALRoot:    rc.walDir,
			Lazy:       true, // warmed in the background after listen
			Logf:       log.Printf,
		})
		if err != nil {
			return err
		}
		scfg.Router = shard.NewRouter(cat, shard.RouterOptions{})
		scfg.DefaultPartial = rc.partial
		// Open the listener before the shards warm: /readyz says
		// "warming" until the background loads finish, so load balancers
		// hold traffic without the process looking dead.
		scfg.StartUnready = !rc.shardLazy
		log.Printf("shards: %d slabs (cuts %v), warm=%v, partial=%q",
			len(cat.Shards()), cat.Cuts(), !rc.shardLazy, rc.partial)
	} else {
		if rc.partial != "" {
			return fmt.Errorf("-partial requires shard mode (-shards or -shard-cuts)")
		}
		eng, err = asrs.NewEngine(ds, engOpts)
		if err != nil {
			return err
		}
		if rc.walDir != "" {
			// NewEngine already replayed the WAL; every previously
			// acknowledged insert is staged for the first epoch view.
			log.Printf("ingest: WAL %s (sync=%s), recovered %d ingested objects",
				rc.walDir, syncPolicy, eng.Stats().Ingested)
		}
		for _, name := range names {
			start := time.Now()
			if err := eng.Warm(composites[name]); err != nil {
				return fmt.Errorf("warming %s: %w", name, err)
			}
			log.Printf("warm: %s ready in %v (index %dx%d + pyramid)", name, time.Since(start).Round(time.Millisecond), rc.grid, rc.grid)
		}
		scfg.Engine = eng
	}

	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	if sharded && !rc.shardLazy {
		go func() {
			start := time.Now()
			if werr := cat.WarmAll(); werr != nil {
				// Keep serving: the failed shard's breaker isolates it and
				// the next request retries the load; siblings are warm.
				log.Printf("shards: WARNING: warm failed (serving continues, breaker isolates it): %v", werr)
			}
			log.Printf("shards: warmed in %v", time.Since(start).Round(time.Millisecond))
			srv.SetReady(true)
		}()
	}
	handler := srv.Handler()
	if rc.verbose {
		handler = server.LogMiddleware(handler)
	}
	httpSrv := newHTTPServer(rc.addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (queue=%d)", rc.addr, rc.queue)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("draining (grace %v)…", rc.grace)
	graceCtx, cancel := context.WithTimeout(context.Background(), rc.grace)
	defer cancel()
	// Drain order: the serving layer first (refuse new queries with 503,
	// answer the clients whose searches are in flight), then the
	// HTTP listener (close idle connections, wait out active handlers).
	drainErr := srv.Shutdown(graceCtx)
	if err := httpSrv.Shutdown(graceCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	// Engines close after the serving layer has drained: no insert can
	// be in flight, and Close syncs each WAL.
	if eng != nil {
		if err := eng.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if cat != nil {
		if err := cat.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if drainErr != nil {
		return drainErr
	}
	log.Printf("drained cleanly")
	return nil
}
