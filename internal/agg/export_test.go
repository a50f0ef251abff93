package agg

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
