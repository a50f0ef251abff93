package dssearch

import (
	"math"

	"asrs/internal/agg"
	"asrs/internal/attr"
)

// CertProbe summarizes the fixed-point quantization certificate a
// (dataset, composite) pair would earn: how many channels the plain
// shared-shift certificate admits, how many need the two-float split,
// and how many neither admits. It mirrors computeCertificate's passes
// over the same per-object contributions, without building tables — the
// query planner's EXPLAIN uses it to predict how a search will find its
// rectangles. Advisory: the kernel re-derives the authoritative
// certificate per prepared table (windowed subsets can only tighten the
// sums, so a channel the probe admits stays admitted).
type CertProbe struct {
	// Channels is the composite's internal channel count.
	Channels int
	// Plain counts channels passing the shared-shift certificate.
	Plain int
	// TwoFloat counts channels rescued by the two-float split.
	TwoFloat int
	// Fallback counts channels neither pass admits; one is enough to
	// keep the master in dataset order.
	Fallback int
}

// Path names the certificate class. The labels are EXPLAIN's wire
// vocabulary and are pinned by its golden tests: "sat" and
// "sat+two-float" are the fully certified classes — sorted master,
// windows and anchor-bin levels, and for "sat" the fixed-point
// mini-sweep as well; the other two leave the master in dataset order.
// Every class fills its grids with the same difference-array pass.
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

// ProbeCertificate runs the certificate passes over the dataset's
// per-object contributions for composite f.
func ProbeCertificate(ds *attr.Dataset, f *agg.Composite) CertProbe {
	c := f.Channels()
	p := CertProbe{Channels: c}
	shift := make([]int, c)
	sumAbs := make([]float64, c)
	var contribs []agg.Contrib
	var scratch []agg.Contrib
	for i := range ds.Objects {
		scratch = f.AppendContribs(&ds.Objects[i], scratch[:0])
		for _, cb := range scratch {
			if fb := fracBits(cb.V); fb > shift[cb.Ch] {
				shift[cb.Ch] = fb
			}
			sumAbs[cb.Ch] += math.Abs(cb.V)
		}
		contribs = append(contribs, scratch...)
	}

	plainOK := make([]bool, c)
	for ch := 0; ch < c; ch++ {
		ok := shift[ch] <= maxShift
		if ok {
			ok = sumAbs[ch]*math.Ldexp(1, shift[ch]) <= maxScaledSum
		}
		plainOK[ch] = ok
		if ok {
			p.Plain++
		}
	}

	// Two-float pass for the failures, mirroring computeCertificate.
	states := make([]twoState, c)
	pending := 0
	for ch := 0; ch < c; ch++ {
		if plainOK[ch] || sumAbs[ch] == 0 ||
			math.IsInf(sumAbs[ch], 0) || math.IsNaN(sumAbs[ch]) {
			continue
		}
		_, e := math.Frexp(sumAbs[ch])
		sHi := 51 - e
		if sHi > maxShift {
			sHi = maxShift
		}
		if sHi < -1000 {
			continue
		}
		states[ch] = twoState{
			scaleHi: math.Ldexp(1, sHi),
			invHi:   math.Ldexp(1, -sHi),
			ok:      true,
		}
		pending++
	}
	if pending > 0 {
		for i := range contribs {
			cb := &contribs[i]
			st := &states[cb.Ch]
			if !st.ok {
				continue
			}
			hi, lo := twoSplit(cb.V, st.scaleHi, st.invHi)
			if hi+lo != cb.V || math.IsNaN(hi) || math.IsInf(hi, 0) {
				st.ok = false
				continue
			}
			st.sumHi += math.Abs(hi)
			st.sumLo += math.Abs(lo)
			if fb := fracBits(lo); fb > st.fbLo {
				st.fbLo = fb
			}
		}
		for ch := 0; ch < c; ch++ {
			st := &states[ch]
			if !st.ok || st.scaleHi == 0 {
				continue
			}
			if st.fbLo > maxShift ||
				st.sumHi*st.scaleHi > maxScaledSum || st.sumLo*math.Ldexp(1, st.fbLo) > maxScaledSum {
				continue
			}
			p.TwoFloat++
		}
	}
	p.Fallback = c - p.Plain - p.TwoFloat
	return p
}
