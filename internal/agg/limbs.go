package agg

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Limbs is the exact form of a composite's channel sums over one object
// set, the one representation every evaluator of a search consumes: the
// difference-array grid fill, the sweep's strip walks, point
// representations, the grid index's suffix tables.
//
// A limb carries values that are integer multiples of its grid 2^-s, and
// Certify bounds its total mass, Σ|v|·2^s ≤ 2^52. Every partial sum a limb
// can form — in the grid's difference arrays, in a strip's add-and-remove
// walk — is then an integer multiple of 2^-s below 2^53 in magnitude:
// exact in float64 in any order, and exact as an int64 count of 2^-s. A
// channel whose values share such a grid is one limb. Any other channel is
// a chain: v is split error-free into v = hi + rest, hi being v rounded to
// a coarse grid chosen from the channel's mass (hiShift), and the rests
// are certified the same way in turn — one more limb on the grid their own
// mass picks, until a rest fits one limb on its finest grid. Fold adds a
// channel's limb sums once each, coarse to fine.
//
// So the value of a channel over a set is a function of its exact limb
// sums: the same whatever the order and whichever evaluator formed it. A
// channel of one or two limbs is the correctly rounded exact sum of its
// contributions (fl(Σhi + Σlo) rounds once); a longer chain rounds once
// per extra limb and is within one ulp of it.
//
// Every finite value that is 0 or at least 2^-970 in magnitude has a
// chain (attr.Dataset.Validate admits nothing else); Certify refuses the
// rest — NaN, ±Inf, values next to the denormals.
type Limbs struct {
	// Scale and Inv are each limb's power of two 2^s and 2^-s. Limbs
	// [0, channels) are the channels' first limbs and limbs
	// [channels, Eff()) their extra ones: each channel's contiguous,
	// coarse to fine, the channels' runs in channel order.
	Scale, Inv []float64
	// Lo maps each channel to its first extra limb, or -1 for a one-limb
	// channel.
	Lo []int32

	owner []int32  // owner[k-channels]: the channel extra limb k belongs to
	sums  LimbSums // the running sums the last Certify decided on
}

// LimbSums are the running sums a certificate is decided on, one per limb,
// accumulated in the order the contributions came: Σ|v| over the values
// the limb's level receives — a channel's contributions for its first
// limb, the rests the limb before it leaves for an extra one.
type LimbSums []float64

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

// hiShift is the scale rule of a split level: it takes the finest grid
// 2^-s on which the level's finite, positive mass abs (< 2^e) stays below
// 2^51, half the headroom, so rounding every value onto the grid keeps
// Σ|hi|·2^s within it — each rounding adds at most half a grid step, and
// a level holds far fewer than 2^51 values.
func hiShift(abs float64) int {
	_, e := math.Frexp(abs)
	return min(51-e, maxLimbShift)
}

// shiftOf returns s for a power of two 2^s.
func shiftOf(scale float64) int {
	_, e := math.Frexp(scale)
	return e - 1
}

// split is the error-free split of v onto the grid 2^-s (scale 2^s, inv
// 2^-s): hi is v rounded to the nearest multiple, rest the remainder. Both
// are exact where the certificate holds — |v|·2^s < 2^51 keeps the
// rounded integer exact, and v and hi agree in their leading bits, so
// the subtraction is exact (Sterbenz).
func split(v, scale, inv float64) (hi, rest float64) {
	hi = math.RoundToEven(v*scale) * inv
	return hi, v - hi
}

// level is one limb of a channel as Certify decides it: its grid and the
// mass it was decided on.
type level struct {
	shift      int
	abs        float64
	scale, inv float64
}

// Certify derives the limbs of a composite with chans channels from the
// contributions of a set, in the order given: the decisions read float
// sums of |v|, so a caller that must reach the same decision again (a
// pyramid fold, Extend) passes the same order. Each level of a channel —
// its contributions, then each level's rests — is one limb on its finest
// grid when that holds the level's mass within the headroom, and is split
// onto the grid hiShift picks otherwise, one pass over the contributions
// per level. Channels without contributions get scale 1. Certify fails,
// leaving l as it was, on a value no chain holds: one whose grid is finer
// than 2^-1022 (NaN, ±Inf, values next to the denormals) or a mass that
// overflows.
func (l *Limbs) Certify(chans int, contribs []Contrib) error {
	chain := make([][]level, chans)
	cur := make([]level, chans)
	done := make([]bool, chans)
	for pending := chans; pending > 0; {
		clear(cur)
		for _, cb := range contribs {
			if done[cb.Ch] {
				continue
			}
			v := cb.V
			for _, lv := range chain[cb.Ch] {
				_, v = split(v, lv.scale, lv.inv)
			}
			c := &cur[cb.Ch]
			c.shift = max(c.shift, fracBits(v))
			c.abs += math.Abs(v)
		}
		for ch, c := range cur {
			if done[ch] {
				continue
			}
			if c.shift > maxLimbShift || math.IsInf(c.abs, 0) {
				return fmt.Errorf("agg: channel %d has a value no limb holds (NaN, ±Inf, or finer than 2^-%d)", ch, maxLimbShift)
			}
			if c.abs*math.Ldexp(1, c.shift) <= maxScaledSum {
				done[ch] = true
				pending--
			} else if c.shift = hiShift(c.abs); len(chain[ch]) > 0 && c.shift <= chain[ch][len(chain[ch])-1].shift {
				// A rest is at most half its level's grid step, so the next
				// grid is finer by about 51 − log2(values) bits.
				return fmt.Errorf("agg: channel %d does not converge to a limb chain", ch)
			}
			c.scale, c.inv = math.Ldexp(1, c.shift), math.Ldexp(1, -c.shift)
			chain[ch] = append(chain[ch], c)
		}
	}

	eff := chans
	for _, c := range chain {
		eff += len(c) - 1
	}
	l.Scale, l.Inv = make([]float64, eff), make([]float64, eff)
	l.Lo, l.owner = make([]int32, chans), make([]int32, eff-chans)
	l.sums = make(LimbSums, eff)
	next := chans
	for ch, c := range chain {
		l.Lo[ch] = -1
		for j, lv := range c {
			k := ch
			if j > 0 {
				k = next
				if j == 1 {
					l.Lo[ch] = int32(k)
				}
				l.owner[k-chans] = int32(ch)
				next++
			}
			l.Scale[k], l.Inv[k], l.sums[k] = lv.scale, lv.inv, lv.abs
		}
	}
	return nil
}

// Layout returns the limbs without the certificate's running sums: a
// value that shares l's slices, which no method writes to.
func (l *Limbs) Layout() Limbs {
	return Limbs{Scale: l.Scale, Inv: l.Inv, Lo: l.Lo, owner: l.owner}
}

// Sums returns a copy of the running sums the last Certify decided on.
func (l *Limbs) Sums() LimbSums { return slices.Clone(l.sums) }

// next returns the limb that follows limb k in channel ch's chain, or -1
// at its end.
func (l *Limbs) next(ch, k int) int {
	chans := len(l.Lo)
	if k < chans {
		return int(l.Lo[ch])
	}
	if k++; k < len(l.Scale) && int(l.owner[k-chans]) == ch {
		return k
	}
	return -1
}

// Extend reports whether Certify, run over a set's contributions and
// then raw, would decide what it decided over the set alone — every
// scale and every split unchanged — given sums, the running sums it read
// over the set (Sums). If so it returns the sums extended by raw.
func (l *Limbs) Extend(sums LimbSums, raw []Contrib) (LimbSums, bool) {
	ext := slices.Clone(sums)
	for _, cb := range raw {
		v := cb.V
		for k := cb.Ch; ; {
			ext[k] += math.Abs(v)
			next := l.next(cb.Ch, k)
			if next < 0 {
				// A chain's last limb keeps its grid while no value is finer.
				if fracBits(v) > shiftOf(l.Scale[k]) {
					return nil, false
				}
				break
			}
			_, v = split(v, l.Scale[k], l.Inv[k])
			k = next
		}
	}
	for ch := range l.Lo {
		for k := ch; k >= 0; k = l.next(ch, k) {
			// A split level cannot turn into a last limb — its grid and mass
			// only grow — but must pick the same grid again; the last limb
			// must keep its headroom.
			if l.next(ch, k) >= 0 {
				if math.Ldexp(1, hiShift(ext[k])) != l.Scale[k] {
					return nil, false
				}
			} else if !(ext[k]*l.Scale[k] <= maxScaledSum) {
				return nil, false
			}
		}
	}
	return ext, true
}

// Eff returns the number of limbs.
func (l *Limbs) Eff() int { return len(l.Scale) }

// SameLayout reports whether o lays channels out in l's limbs: the same
// grids, chained the same way.
func (l *Limbs) SameLayout(o *Limbs) bool {
	return slices.Equal(l.Scale, o.Scale) && slices.Equal(l.Lo, o.Lo) && slices.Equal(l.owner, o.owner)
}

// RoundsOnce reports whether every channel has at most two limbs. Each
// channel's value over a set is then the correctly rounded exact sum of
// its contributions, whichever such layout certified them — so sets
// whose rows were split by different certificates of one layout sum to
// what their own certificate would give them.
func (l *Limbs) RoundsOnce() bool {
	// A channel's extra limbs are one run of owner.
	for i := 1; i < len(l.owner); i++ {
		if l.owner[i] == l.owner[i-1] {
			return false
		}
	}
	return true
}

// Holds reports whether limb contributions already split in l — any
// number of objects' — keep every limb within its headroom, Σ|v|·2^s ≤
// 2^52: what a certificate guarantees of the set it was decided on, and
// all that the exactness of every partial sum asks (see Limbs).
func (l *Limbs) Holds(cbs []Contrib) bool {
	abs := make([]float64, len(l.Scale))
	for _, cb := range cbs {
		abs[cb.Ch] += math.Abs(cb.V)
	}
	for k, a := range abs {
		if !(a*l.Scale[k] <= maxScaledSum) {
			return false
		}
	}
	return true
}

// Split rewrites the contributions cbs[start:] — one object's, as
// AppendContribs emitted them — into limbs: each one on a channel of more
// than one limb becomes its first limb's part, and its parts on the extra
// limbs are appended behind them, coarse to fine. It returns the extended
// slice.
func (l *Limbs) Split(cbs []Contrib, start int) []Contrib {
	if len(l.Scale) == len(l.Lo) {
		return cbs
	}
	for i, end := start, len(cbs); i < end; i++ {
		ch := cbs[i].Ch
		k := l.next(ch, ch)
		if k < 0 {
			continue
		}
		hi, rest := split(cbs[i].V, l.Scale[ch], l.Inv[ch])
		cbs[i].V = hi
		for next := l.next(ch, k); next >= 0; k, next = next, l.next(ch, next) {
			hi, rest = split(rest, l.Scale[k], l.Inv[k])
			cbs = append(cbs, Contrib{Ch: k, V: hi})
		}
		cbs = append(cbs, Contrib{Ch: k, V: rest})
	}
	return cbs
}

// Fold collapses a limb vector into channels: each extra limb is added
// onto its channel, coarse to fine. It returns src itself when every
// channel is one limb.
func (l *Limbs) Fold(dst, src []float64) []float64 {
	c := len(l.Lo)
	if len(l.Scale) == c {
		return src
	}
	dst = dst[:c]
	copy(dst, src[:c])
	for i, ch := range l.owner {
		dst[ch] += src[c+i]
	}
	return dst
}

// ExactSum returns the channel sums of the contributions of one set in
// the limbs they certify (see Limbs) — the value every evaluator of a
// search forms for the set under that certificate. It fails where Certify
// does.
func ExactSum(chans int, contribs []Contrib) ([]float64, error) {
	var l Limbs
	if err := l.Certify(chans, contribs); err != nil {
		return nil, err
	}
	// Limb sums are exact in any order: each contribution is split and
	// summed on its own, so the set is not copied.
	ch := make([]float64, l.Eff())
	var parts []Contrib
	for _, cb := range contribs {
		parts = l.Split(append(parts[:0], cb), 0)
		for _, p := range parts {
			ch[p.Ch] += p.V
		}
	}
	return l.Fold(make([]float64, chans), ch), nil
}
