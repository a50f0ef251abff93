package agg

import (
	"fmt"
	"math"
)

// FoldCounts is Fold for limb totals given as int64 counts of each limb's
// grid: each count times its power of two is the exact float limb value,
// and the limbs of a channel are added as Fold adds them. dst must have
// room for every channel. The searches score count totals through a
// compiled ScorePlan; this is kept as that plan's oracle.
func (l *Limbs) FoldCounts(dst []float64, tot []int64) []float64 {
	c := len(l.Lo)
	dst = dst[:c]
	for ch := range dst {
		dst[ch] = float64(tot[ch]) * l.Inv[ch]
	}
	for i, ch := range l.owner {
		dst[ch] += float64(tot[c+i]) * l.Inv[c+i]
	}
	return dst
}

// ChainLen returns the number of limbs channel ch is summed in.
func ChainLen(l *Limbs, ch int) int { return limbsOf(l, ch) }

// Components, Fingerprint and InfMM are read only by tests.

// Components returns the number of (f, A, γ) components.
func (c *Composite) Components() int { return len(c.specs) }

// Fingerprint returns a stable structural description of the composite:
// one "kind:attr:dims" token per component. Selection functions are
// opaque and cannot be fingerprinted: two composites that differ only in
// a γ have one fingerprint.
func (c *Composite) Fingerprint() string {
	var sb []byte
	for i := range c.specs {
		s := &c.specs[i]
		if i > 0 {
			sb = append(sb, ';')
		}
		name := ""
		if s.attrIdx >= 0 {
			name = c.schema.At(s.attrIdx).Name
		}
		sb = append(sb, fmt.Sprintf("%s:%s:%d", s.kind, name, s.dims)...)
	}
	return string(sb)
}

// InfMM returns freshly initialized (mmMin, mmMax) slot vectors: +Inf/-Inf
// identities for min/max.
func (c *Composite) InfMM() (mmMin, mmMax []float64) {
	mmMin = make([]float64, c.mmSlots)
	mmMax = make([]float64, c.mmSlots)
	for i := range mmMin {
		mmMin[i] = math.Inf(1)
		mmMax[i] = math.Inf(-1)
	}
	return mmMin, mmMax
}
