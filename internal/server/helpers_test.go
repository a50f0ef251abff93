package server_test

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
)

// serveQueries builds k distinct requests: overlapping query-by-example
// extents sharing one (a, b) shape, with inflated virtual targets so
// every request runs a real search.
func serveQueries(ds *asrs.Dataset, f *asrs.Composite, k int, seed int64) ([]asrs.QueryRequest, error) {
	bounds := ds.Bounds()
	a := bounds.Width() / 32
	b := bounds.Height() / 32
	rng := rand.New(rand.NewSource(seed ^ 0x5e12e))
	reqs := make([]asrs.QueryRequest, k)
	for i := range reqs {
		cx := bounds.MinX + bounds.Width()*(0.15+0.65*rng.Float64())
		cy := bounds.MinY + bounds.Height()*(0.15+0.65*rng.Float64())
		rq := asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + b}
		q, err := asrs.QueryFromRegion(ds, f, nil, rq)
		if err != nil {
			return nil, err
		}
		for j := range q.Target {
			q.Target[j] = math.Trunc(q.Target[j]*1.1) + 0.5
		}
		reqs[i] = asrs.QueryRequest{Query: q, A: a, B: b}
	}
	return reqs, nil
}

// testCorpus builds the shared serving fixture once: a Singapore-shaped
// corpus, the serving composite, and a request mix of overlapping
// query-by-example extents expanded with exact repeats (the dedup-heavy
// shape real serving traffic has).
var testCorpus struct {
	once sync.Once
	ds   *asrs.Dataset
	f    *asrs.Composite
	reqs []asrs.QueryRequest
	err  error
}

func corpus(t *testing.T) (*asrs.Dataset, *asrs.Composite, []asrs.QueryRequest) {
	t.Helper()
	testCorpus.once.Do(func() {
		ds := dataset.SingaporeScaled(8000, 11)
		f, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
			asrs.AggSpec{Kind: asrs.Count},
		)
		if err != nil {
			testCorpus.err = err
			return
		}
		distinct, err := serveQueries(ds, f, 16, 11)
		if err != nil {
			testCorpus.err = err
			return
		}
		// A third of the mix repeats earlier requests (popular queries),
		// exercising the dedup pass.
		rng := rand.New(rand.NewSource(11))
		reqs := make([]asrs.QueryRequest, 24)
		next := 0
		for i := range reqs {
			if i > 0 && i%3 == 2 {
				reqs[i] = reqs[rng.Intn(i)]
				continue
			}
			reqs[i] = distinct[next%len(distinct)]
			next++
		}
		testCorpus.ds, testCorpus.f, testCorpus.reqs = ds, f, reqs
	})
	if testCorpus.err != nil {
		t.Fatal(testCorpus.err)
	}
	return testCorpus.ds, testCorpus.f, testCorpus.reqs
}

// closeAndCheckLeaks is a server fixture's clean-up: drain the server,
// close its listener and the client's idle connections, then wait for
// runtime.NumGoroutine to settle back to before, its count from before
// the fixture was built — a goroutine left over is one the server leaked.
func closeAndCheckLeaks(t *testing.T, s *server.Server, ts *httptest.Server, before int) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines after clean-up, %d before the server was built:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
