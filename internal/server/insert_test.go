package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asrs"
	"asrs/internal/wire"
)

// insertFixture builds a server over a small two-attribute corpus
// (categorical + numeric, so both wire value forms are exercised) and
// returns it with its engine and test listener.
func insertFixture(t *testing.T, cfg Config) (*Server, *httptest.Server, *asrs.Engine) {
	t.Helper()
	schema := asrs.MustSchema(
		asrs.Attribute{Name: "category", Kind: asrs.Categorical,
			Domain: []string{"Apartment", "Supermarket", "Restaurant"}},
		asrs.Attribute{Name: "price", Kind: asrs.Numeric},
	)
	obj := func(x, y float64, cat int, price float64) asrs.Object {
		return asrs.Object{Loc: asrs.Point{X: x, Y: y},
			Values: []asrs.Value{{Cat: cat}, {Num: price}}}
	}
	ds := &asrs.Dataset{Schema: schema, Objects: []asrs.Object{
		obj(1.0, 1.0, 0, 2.0), obj(1.6, 1.4, 0, 1.5), obj(1.2, 1.8, 1, 0),
		obj(4.8, 1.2, 2, 0), obj(4.4, 1.6, 0, 3.0), obj(7.1, 2.3, 1, 0),
	}}
	f, err := asrs.NewComposite(schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	cfg.Composites = map[string]*asrs.Composite{"poi": f}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts, eng
}

func postInsert(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/insert", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestInsertEndpointEndToEnd: wire objects land in the engine with their
// categorical labels resolved and numerics bit-preserved, acks count
// both the request and the running total, and the inserted objects are
// visible to queries issued after the ack.
func TestInsertEndpointEndToEnd(t *testing.T) {
	_, ts, eng := insertFixture(t, Config{})
	resp, body := postInsert(t, ts.URL, wire.Insert{Objects: []wire.InsertObject{
		{X: 2.0, Y: 2.5, Values: map[string]any{"category": "Restaurant", "price": 0.0}},
		{X: 2.2, Y: 2.7, Values: map[string]any{"category": "Apartment", "price": 1.75}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var ack wire.InsertResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Ingested != 2 || ack.TotalIngested != 2 {
		t.Fatalf("ack %+v, want 2/2", ack)
	}
	got := eng.IngestedObjects()
	if len(got) != 2 {
		t.Fatalf("engine staged %d objects, want 2", len(got))
	}
	if got[0].Values[0].Cat != 2 || got[1].Values[0].Cat != 0 {
		t.Fatalf("categorical labels resolved to %d/%d, want 2/0", got[0].Values[0].Cat, got[1].Values[0].Cat)
	}
	if math.Float64bits(got[1].Values[1].Num) != math.Float64bits(1.75) {
		t.Fatalf("numeric value %v, want 1.75", got[1].Values[1].Num)
	}

	// Second insert advances the running total.
	resp, body = postInsert(t, ts.URL, wire.Insert{Objects: []wire.InsertObject{
		{X: 3.0, Y: 3.0, Values: map[string]any{"category": "Supermarket", "price": 0.0}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second insert: status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Ingested != 1 || ack.TotalIngested != 3 {
		t.Fatalf("second ack %+v, want 1/3", ack)
	}

	// The inserted objects answer queries: a query-by-example over the
	// region the inserts landed in must see them (the epoch advanced).
	q := wire.Query{Composite: "poi", A: 1.0, B: 1.0,
		Region: &wire.Rect{MinX: 1.8, MinY: 2.3, MaxX: 2.4, MaxY: 2.9}}
	raw, _ := json.Marshal(q)
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("post-insert query status = %d", qresp.StatusCode)
	}
	if st := eng.Stats(); st.Ingested != 3 {
		t.Fatalf("Stats.Ingested = %d, want 3", st.Ingested)
	}
}

// TestInsertEndpointValidation: malformed bodies and schema-violating
// objects are refused with 400/bad_request and stage nothing.
func TestInsertEndpointValidation(t *testing.T) {
	_, ts, eng := insertFixture(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"empty", wire.Insert{}},
		{"missing_attr", wire.Insert{Objects: []wire.InsertObject{
			{X: 1, Y: 1, Values: map[string]any{"category": "Apartment"}}}}},
		{"unknown_attr", wire.Insert{Objects: []wire.InsertObject{
			{X: 1, Y: 1, Values: map[string]any{"category": "Apartment", "rating": 5.0}}}}},
		{"bad_label", wire.Insert{Objects: []wire.InsertObject{
			{X: 1, Y: 1, Values: map[string]any{"category": "Castle", "price": 1.0}}}}},
		{"number_for_categorical", wire.Insert{Objects: []wire.InsertObject{
			{X: 1, Y: 1, Values: map[string]any{"category": 2.0, "price": 1.0}}}}},
		{"string_for_numeric", wire.Insert{Objects: []wire.InsertObject{
			{X: 1, Y: 1, Values: map[string]any{"category": "Apartment", "price": "cheap"}}}}},
	}
	for _, c := range cases {
		resp, body := postInsert(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %s", c.name, resp.StatusCode, body)
		}
		var wr wire.Response
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		if wr.Code != wire.CodeBadRequest || wr.Retryable {
			t.Fatalf("%s: code %q retryable %v, want bad_request/false", c.name, wr.Code, wr.Retryable)
		}
	}
	if got := len(eng.IngestedObjects()); got != 0 {
		t.Fatalf("refused inserts staged %d objects", got)
	}
}

// TestInsertShedsUnderBrownout: a server whose degradation ladder has
// stepped down at all sheds inserts with 429 + Retry-After while the
// query path keeps serving — inserts are the first load dropped.
func TestInsertShedsUnderBrownout(t *testing.T) {
	s, ts, eng := insertFixture(t, Config{})
	for i := 0; i < ladderStepSheds; i++ {
		s.ladder.note(true)
	}
	if s.ladder.Level() == 0 {
		t.Fatal("ladder did not step down")
	}
	resp, body := postInsert(t, ts.URL, wire.Insert{Objects: []wire.InsertObject{
		{X: 2, Y: 2, Values: map[string]any{"category": "Apartment", "price": 1.0}},
	}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("brownout insert: status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Code != wire.CodeOverloaded || !wr.Retryable {
		t.Fatalf("brownout insert: code %q retryable %v, want overloaded/true", wr.Code, wr.Retryable)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("brownout insert: Retry-After = %q, want >= 1", ra)
	}
	if got := len(eng.IngestedObjects()); got != 0 {
		t.Fatalf("shed insert staged %d objects", got)
	}

	// Queries are NOT shed by brownout alone (only by a full queue).
	q := wire.Query{Composite: "poi", A: 1, B: 1, Target: []float64{1, 0, 0, 3}}
	raw, _ := json.Marshal(q)
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("brownout query: status = %d", qresp.StatusCode)
	}
}

// TestInsertRefusedWhileDraining: a draining server answers inserts
// with 503/draining before touching the engine.
func TestInsertRefusedWhileDraining(t *testing.T) {
	s, ts, eng := insertFixture(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := postInsert(t, ts.URL, wire.Insert{Objects: []wire.InsertObject{
		{X: 2, Y: 2, Values: map[string]any{"category": "Apartment", "price": 1.0}},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining insert: status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Code != wire.CodeDraining || !wr.Retryable {
		t.Fatalf("draining insert: code %q retryable %v, want draining/true", wr.Code, wr.Retryable)
	}
	if got := len(eng.IngestedObjects()); got != 0 {
		t.Fatalf("draining insert staged %d objects", got)
	}
}
