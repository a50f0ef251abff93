package query

import (
	"fmt"

	"asrs"
	"asrs/internal/dssearch"
)

// ExplainChannel describes one channel group of the compiled composite.
type ExplainChannel struct {
	// Atom is the canonical atom text ("dist(category)", "@poi").
	Atom string `json:"atom"`
	// Kind is the aggregate kind ("dist", "sum", "avg", "count") or
	// "composite" for a @name reference.
	Kind string `json:"kind"`
	// Attr is the attribute name (empty for bare count and @name).
	Attr string `json:"attr,omitempty"`
	// Dims is how many representation dimensions the atom spans.
	Dims int `json:"dims"`
	// Weight is the per-dimension distance weight (the coefficient).
	Weight float64 `json:"weight"`
}

// ExplainFill is what the limb certificate probe
// (dssearch.ProbeCertificate) finds: the composite's channels and the
// exact limbs every search over the dataset sums them in.
type ExplainFill struct {
	Channels int `json:"channels"`
	Limbs    int `json:"limbs"`
}

// ExplainReport is the inspectable plan: what EXPLAIN returns instead
// of an answer. Stable field set — the golden tests pin its JSON form.
type ExplainReport struct {
	// Canonical is the canonical query text; semantically identical
	// queries share it (and through it the engine's searches in flight).
	Canonical string `json:"canonical"`
	// Form is "find" or "maximize".
	Form string `json:"form"`
	// Composite is the interned composite's identity: the canonical
	// spec key, or "@name" for a registered composite.
	Composite string           `json:"composite,omitempty"`
	Dims      int              `json:"dims,omitempty"`
	Channels  []ExplainChannel `json:"channels,omitempty"`
	Norm      string           `json:"norm,omitempty"`
	// Targets names each target part's source in clause order.
	Targets []string `json:"targets,omitempty"`
	A       float64  `json:"a"`
	B       float64  `json:"b"`
	TopK    int      `json:"top_k,omitempty"`
	// Excludes counts exclusion rectangles (explicit + example).
	Excludes int     `json:"excludes,omitempty"`
	Within   string  `json:"within,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	// Filters names the streamed post-filter chain in order.
	Filters   []string `json:"filters,omitempty"`
	DiverseBy float64  `json:"diverse_by,omitempty"`
	ScanCap   int      `json:"scan_cap,omitempty"`
	// Strategy is the execution shape: "single" (one exact solve),
	// "greedy-rounds" (lazy round-per-answer streaming, identical to
	// one-shot top-k), "greedy-rounds+filters", or "maxrs-sweep".
	Strategy string `json:"strategy"`
	// Route is "engine" or "router".
	Route string `json:"route"`
	// Fill is the certificate probe's limb count (find form).
	Fill *ExplainFill `json:"fill,omitempty"`
}

// Report builds the EXPLAIN report for a plan against a dataset
// snapshot. routed selects the Route label; ds drives the certificate
// probe (nil skips it — the report then has no fill).
func (pl *Plan) Report(ds *asrs.Dataset, routed bool) ExplainReport {
	rep := ExplainReport{Canonical: pl.Canonical, Route: "engine"}
	if routed {
		rep.Route = "router"
	}
	if pl.Max != nil {
		rep.Form = "maximize"
		rep.Strategy = "maxrs-sweep"
		rep.A, rep.B = pl.Max.A, pl.Max.B
		if pl.Max.Fn == "sum" {
			rep.Composite = "sum(" + pl.Max.Attr + ")"
		} else {
			rep.Composite = "count()"
		}
		return rep
	}
	rep.Form = "find"
	rep.Composite = pl.CompKey
	rep.Dims = pl.Comp.Dims()
	rep.Channels = pl.channels
	rep.Norm = normName(pl.Norm)
	for _, part := range pl.targets {
		rep.Targets = append(rep.Targets, part.place.canon())
	}
	rep.A, rep.B = pl.A, pl.B
	if pl.TopK > 1 {
		rep.TopK = pl.TopK
	}
	rep.Excludes = len(pl.Exclude) + len(pl.exampleExcludes)
	if pl.Within != nil {
		rep.Within = fmt.Sprintf("region(%s,%s,%s,%s)",
			num(pl.Within.MinX), num(pl.Within.MinY), num(pl.Within.MaxX), num(pl.Within.MaxY))
	}
	rep.Delta = pl.Delta
	for _, f := range pl.Filters {
		rep.Filters = append(rep.Filters, f.canon)
	}
	rep.DiverseBy = pl.DiverseBy
	rep.ScanCap = pl.ScanCap
	switch {
	case len(pl.Filters) > 0 || pl.DiverseBy > 0:
		rep.Strategy = "greedy-rounds+filters"
	case pl.K() > 1:
		rep.Strategy = "greedy-rounds"
	default:
		rep.Strategy = "single"
	}
	if ds != nil {
		if probe, err := dssearch.ProbeCertificate(ds, pl.Comp); err == nil {
			rep.Fill = &ExplainFill{Channels: probe.Channels, Limbs: probe.Limbs}
		}
	}
	return rep
}

func normName(n asrs.Norm) string {
	if n == asrs.L2 {
		return "l2"
	}
	return "l1"
}
