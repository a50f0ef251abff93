package agg

import (
	"math"
	"math/bits"
)

// Limbs is the exact form of a composite's channel sums over one object
// set, the one representation every evaluator of a search consumes: the
// difference-array grid fill, the sweep's strip walks, point
// representations.
//
// Each channel is summed as one limb or as two. A limb carries values
// that are integer multiples of its grid 2^-s, and Certify bounds its
// total mass, Σ|v|·2^s ≤ 2^52. Every partial sum a limb can form — in the
// grid's difference arrays, in a strip's add-and-remove walk — is then an
// integer multiple of 2^-s below 2^53 in magnitude: exact in float64 in
// any order, and exact as an int64 count of 2^-s. A channel whose values
// share no such grid (full-mantissa reals, decimal steps) is split
// error-free into v = hi + lo: hi is v rounded to a coarse grid chosen
// from the channel's mass (hiShift), lo the exact remainder on a fine
// grid of its own. Its two limbs are summed apart and folded once,
// fl(Σhi + Σlo) — the correctly rounded exact sum (Fold).
//
// So the value of every certified channel over a set is the correctly
// rounded exact sum of its contributions, whatever the order and
// whichever evaluator formed it. A channel neither form certifies — NaN,
// ±Inf, values next to the denormals, a spread two limbs cannot hold —
// has Scale 0 and is summed in float as its contributions come; Exact is
// then false, and callers keep the seed algorithm's summation order.
type Limbs struct {
	// Scale and Inv are each limb's power of two 2^s and 2^-s (0 for an
	// uncertified channel). Limbs [0, channels) are the channels
	// themselves — a two-limb channel's hi part — and limbs
	// [channels, Eff()) the lo parts.
	Scale, Inv []float64
	// Lo maps each channel to its lo limb, or -1 for a one-limb channel.
	Lo []int32
	// Exact reports that every channel is certified.
	Exact bool

	sums LimbSums    // the running sums the last Certify decided on
	cert []limbState // Certify's per-channel scratch
}

// LimbSums are the running sums a certificate is decided on, accumulated
// in the order the contributions came: Σ|v| per channel and, per
// two-limb channel, Σ|hi| and Σ|lo| (0 elsewhere).
type LimbSums struct {
	Abs, Hi, Lo []float64
}

// limbState is one channel's progress through Certify.
type limbState struct {
	shift, hiShift, loShift int
	plain, two              bool
}

// maxScaledSum bounds a limb's total absolute scaled mass. 2^52 leaves a
// factor-2 margin below float64's exact integer range (2^53), so every
// partial sum of the difference-array fill is exactly representable even
// after the float slack of the certificate's own Σ|v| estimate.
const maxScaledSum = 1 << 52

// maxLimbShift is the finest grid a limb may take: with |s| ≤ 1022 both
// 2^s and 2^-s are normal, which is all the exactness argument asks of a
// scale — multiplying a certified value by either is exact. A denormal
// needs a finer grid, and NaN and ±Inf have none.
const maxLimbShift = 1022

// fracBits returns the number of binary fraction bits of v — the
// smallest k ≥ 0 with v·2^k integral. NaN and ±Inf get 1075, beyond every
// admissible shift (a denormal needs at least 1023).
func fracBits(v float64) int {
	if v == 0 {
		return 0
	}
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	frac := b & (1<<52 - 1)
	switch exp {
	case 0x7ff: // Inf/NaN
		return 1075
	case 0: // denormal: v = frac·2^-1074
		return 1074 - bits.TrailingZeros64(frac)
	}
	// v = (2^52 | frac) · 2^(exp-1075).
	return max(0, 1075-exp-bits.TrailingZeros64(frac|1<<52))
}

// hiShift is the scale rule of a two-limb channel: its hi limb takes the
// finest grid 2^-s on which the channel's mass abs (< 2^e) stays below
// 2^51, half the headroom, so rounding every value onto the grid keeps
// Σ|hi|·2^s within it. ok is false when no admissible grid serves.
func hiShift(abs float64) (s int, ok bool) {
	if !(abs > 0) || math.IsInf(abs, 0) {
		return 0, false
	}
	_, e := math.Frexp(abs)
	s = min(51-e, maxLimbShift)
	return s, s >= -maxLimbShift
}

// shiftOf returns s for a power of two 2^s.
func shiftOf(scale float64) int {
	_, e := math.Frexp(scale)
	return e - 1
}

// split is the error-free split of v onto the grid 2^-s (scale 2^s, inv
// 2^-s): hi is v rounded to the nearest multiple, lo the remainder. Both
// are exact where the certificate holds — |v|·2^s ≤ 2^52 keeps the
// rounded integer exact, and v and hi agree in their leading bits, so
// the subtraction is exact (Sterbenz).
func split(v, scale, inv float64) (hi, lo float64) {
	hi = math.RoundToEven(v*scale) * inv
	return hi, v - hi
}

// Certify derives the limbs of a composite with chans channels from the
// contributions of a set, in the order given: the decisions read float
// sums of |v|, so a caller that must reach the same decision again
// (a pyramid fold, Extend) passes the same order. A channel first tries
// one limb on the finest grid its values need; failing that, two limbs,
// the hi grid from hiShift; failing both it stays uncertified. Channels
// without contributions are certified with scale 1. The slices of l are
// reused.
func (l *Limbs) Certify(chans int, contribs []Contrib) {
	if cap(l.cert) < chans {
		l.cert = make([]limbState, chans)
	}
	cert := l.cert[:chans]
	clear(cert)
	l.sums.Abs = zeroed(l.sums.Abs, chans)
	l.sums.Hi = zeroed(l.sums.Hi, chans)
	l.sums.Lo = zeroed(l.sums.Lo, chans)
	abs := l.sums.Abs
	for _, cb := range contribs {
		if fb := fracBits(cb.V); fb > cert[cb.Ch].shift {
			cert[cb.Ch].shift = fb
		}
		abs[cb.Ch] += math.Abs(cb.V)
	}

	// One limb where the values share a grid within the headroom; else
	// two, verified in one pass over the contributions for every channel
	// that needs them: each value must split exactly and both halves fit.
	pending := false
	for ch := range cert {
		c := &cert[ch]
		c.plain = c.shift <= maxLimbShift && abs[ch]*math.Ldexp(1, c.shift) <= maxScaledSum
		if !c.plain {
			c.hiShift, c.two = hiShift(abs[ch])
			pending = pending || c.two
		}
	}
	if pending {
		for _, cb := range contribs {
			c := &cert[cb.Ch]
			if !c.two {
				continue
			}
			hi, lo := split(cb.V, math.Ldexp(1, c.hiShift), math.Ldexp(1, -c.hiShift))
			if hi+lo != cb.V || math.IsNaN(hi) || math.IsInf(hi, 0) {
				c.two = false
				continue
			}
			l.sums.Hi[cb.Ch] += math.Abs(hi)
			l.sums.Lo[cb.Ch] += math.Abs(lo)
			if fb := fracBits(lo); fb > c.loShift {
				c.loShift = fb
			}
		}
	}

	eff := chans
	for ch := range cert {
		c := &cert[ch]
		c.two = c.two && c.loShift <= maxLimbShift &&
			l.sums.Hi[ch]*math.Ldexp(1, c.hiShift) <= maxScaledSum &&
			l.sums.Lo[ch]*math.Ldexp(1, c.loShift) <= maxScaledSum
		if c.two {
			eff++
		} else {
			l.sums.Hi[ch], l.sums.Lo[ch] = 0, 0
		}
	}
	l.Scale = resized(l.Scale, eff)
	l.Inv = resized(l.Inv, eff)
	if cap(l.Lo) < chans {
		l.Lo = make([]int32, chans)
	}
	l.Lo = l.Lo[:chans]
	l.Exact = true
	lo := chans
	for ch, c := range cert {
		l.Lo[ch] = -1
		switch {
		case c.plain:
			l.setShift(ch, c.shift)
		case c.two:
			l.setShift(ch, c.hiShift)
			l.setShift(lo, c.loShift)
			l.Lo[ch] = int32(lo)
			lo++
		default:
			l.Scale[ch], l.Inv[ch] = 0, 0
			l.Exact = false
		}
	}
}

func (l *Limbs) setShift(k, s int) {
	l.Scale[k], l.Inv[k] = math.Ldexp(1, s), math.Ldexp(1, -s)
}

// Sums returns a copy of the running sums the last Certify decided on.
func (l *Limbs) Sums() LimbSums {
	return LimbSums{
		Abs: append([]float64(nil), l.sums.Abs...),
		Hi:  append([]float64(nil), l.sums.Hi...),
		Lo:  append([]float64(nil), l.sums.Lo...),
	}
}

// Extend reports whether Certify, run over a set's contributions and
// then raw, would decide what it decided over the set alone — every
// scale and every split unchanged — given sums, the running sums it read
// over the set (Sums). If so it returns the sums extended by raw. Only
// exact limbs extend.
func (l *Limbs) Extend(sums LimbSums, raw []Contrib) (LimbSums, bool) {
	if !l.Exact {
		return LimbSums{}, false
	}
	ext := LimbSums{
		Abs: append([]float64(nil), sums.Abs...),
		Hi:  append([]float64(nil), sums.Hi...),
		Lo:  append([]float64(nil), sums.Lo...),
	}
	for _, cb := range raw {
		ext.Abs[cb.Ch] += math.Abs(cb.V)
		lo := l.Lo[cb.Ch]
		if lo < 0 {
			// A one-limb channel keeps its grid while no value is finer.
			if fracBits(cb.V) > shiftOf(l.Scale[cb.Ch]) {
				return LimbSums{}, false
			}
			continue
		}
		hi, rest := split(cb.V, l.Scale[cb.Ch], l.Inv[cb.Ch])
		if hi+rest != cb.V || math.IsNaN(hi) || math.IsInf(hi, 0) || fracBits(rest) > shiftOf(l.Scale[lo]) {
			return LimbSums{}, false
		}
		ext.Hi[cb.Ch] += math.Abs(hi)
		ext.Lo[cb.Ch] += math.Abs(rest)
	}
	for ch, lo := range l.Lo {
		if lo < 0 {
			if !(ext.Abs[ch]*l.Scale[ch] <= maxScaledSum) {
				return LimbSums{}, false
			}
			continue
		}
		// One limb cannot come back: its grid and the mass only grow. Two
		// must pick the same hi grid again, both halves within headroom.
		s, ok := hiShift(ext.Abs[ch])
		if !ok || math.Ldexp(1, s) != l.Scale[ch] ||
			!(ext.Hi[ch]*l.Scale[ch] <= maxScaledSum) || !(ext.Lo[ch]*l.Scale[lo] <= maxScaledSum) {
			return LimbSums{}, false
		}
	}
	return ext, true
}

// Eff returns the number of limbs.
func (l *Limbs) Eff() int { return len(l.Scale) }

// Split rewrites the contributions cbs[start:] — one object's, as
// AppendContribs emitted them — into limbs: each one on a two-limb
// channel becomes its hi part, and its lo part is appended behind them.
// It returns the extended slice.
func (l *Limbs) Split(cbs []Contrib, start int) []Contrib {
	if len(l.Scale) == len(l.Lo) {
		return cbs
	}
	for k, end := start, len(cbs); k < end; k++ {
		if lo := l.Lo[cbs[k].Ch]; lo >= 0 {
			hi, rest := split(cbs[k].V, l.Scale[cbs[k].Ch], l.Inv[cbs[k].Ch])
			cbs[k].V = hi
			cbs = append(cbs, Contrib{Ch: int(lo), V: rest})
		}
	}
	return cbs
}

// Fold collapses a limb vector into channels: each two-limb channel's lo
// limb is added onto its hi limb, one rounding of the exact sum. It
// returns src itself when no channel has two limbs.
func (l *Limbs) Fold(dst, src []float64) []float64 {
	c := len(l.Lo)
	if len(l.Scale) == c {
		return src
	}
	dst = dst[:c]
	copy(dst, src[:c])
	for ch, lo := range l.Lo {
		if lo >= 0 {
			dst[ch] += src[lo]
		}
	}
	return dst
}

// FoldCounts is Fold for limb totals given as int64 counts of each
// limb's grid — the incremental sweep's form: each count times its power
// of two is the exact float limb value, and the two limbs of a channel
// are added once. dst must have room for every channel.
func (l *Limbs) FoldCounts(dst []float64, tot []int64) []float64 {
	dst = dst[:len(l.Lo)]
	for ch := range dst {
		dst[ch] = float64(tot[ch]) * l.Inv[ch]
	}
	for ch, lo := range l.Lo {
		if lo >= 0 {
			dst[ch] += float64(tot[lo]) * l.Inv[lo]
		}
	}
	return dst
}

// ExactSum returns the channel sums of the contributions of one set:
// every channel they certify as its correctly rounded exact sum, the
// others summed in the order given — the value every evaluator of a
// search forms for the set.
func ExactSum(chans int, contribs []Contrib) []float64 {
	var l Limbs
	l.Certify(chans, contribs)
	ch := make([]float64, l.Eff())
	for _, cb := range l.Split(append([]Contrib(nil), contribs...), 0) {
		ch[cb.Ch] += cb.V
	}
	return l.Fold(make([]float64, chans), ch)
}

// zeroed returns v resized to n, all zero.
func zeroed(v []float64, n int) []float64 {
	v = resized(v, n)
	clear(v)
	return v
}

// resized returns v with length n, reusing its capacity.
func resized(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}
