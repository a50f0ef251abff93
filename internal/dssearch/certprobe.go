package dssearch

import (
	"asrs/internal/agg"
	"asrs/internal/attr"
)

// CertProbe summarizes the limb certificate (agg.Limbs) a (dataset,
// composite) pair earns: how many channels sum as one exact limb, how
// many as two, and how many neither admits. The query planner's EXPLAIN
// uses it to predict how a search will find its rectangles. Advisory: a
// search certifies the reduction it runs on, whose contributions are the
// dataset's, in the same order.
type CertProbe struct {
	// Channels is the composite's internal channel count.
	Channels int
	// Plain counts channels summed as one limb.
	Plain int
	// TwoFloat counts channels summed as two limbs.
	TwoFloat int
	// Fallback counts channels no certificate admits; one is enough to
	// keep the master in dataset order.
	Fallback int
}

// Path names the certificate class. The labels are EXPLAIN's wire
// vocabulary and are pinned by its golden tests: "sat" (every channel
// one limb) and "sat+two-float" (some channel two) are the certified
// classes — sorted master, windows, anchor-bin levels and the
// incremental mini-sweep; the other two leave the master in dataset
// order. Every class fills its grids with the same difference-array pass.
func (p CertProbe) Path() string {
	switch {
	case p.Fallback == 0 && p.TwoFloat == 0:
		return "sat"
	case p.Fallback == 0:
		return "sat+two-float"
	case p.Plain+p.TwoFloat == 0:
		return "difference-array"
	default:
		return "sat+fallback"
	}
}

// ProbeCertificate certifies the dataset's per-object contributions for
// composite f, in dataset order, as the tables do (agg.Limbs.Certify).
func ProbeCertificate(ds *attr.Dataset, f *agg.Composite) CertProbe {
	var contribs []agg.Contrib
	for i := range ds.Objects {
		contribs = f.AppendContribs(&ds.Objects[i], contribs)
	}
	var l agg.Limbs
	l.Certify(f.Channels(), contribs)
	p := CertProbe{Channels: f.Channels()}
	for ch, lo := range l.Lo {
		switch {
		case lo >= 0:
			p.TwoFloat++
		case l.Scale[ch] == 0:
			p.Fallback++
		default:
			p.Plain++
		}
	}
	return p
}
