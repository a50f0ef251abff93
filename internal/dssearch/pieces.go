package dssearch

import "asrs/internal/geom"

// The exclusion geometry every search shares — a Request's rounds over the
// whole space or an anchor window (request.go), GI-DS cutting its margins
// and index cells (internal/gridindex), and the baseline oracle: an
// excluded rectangle forbids an open box of answer points, and a search
// space minus those boxes is a list of closed pieces, each searched on
// its own.

// ForbiddenBoxes returns, per excluded rectangle, the box of answer
// points whose a×b region would overlap it: under the top-right anchor
// the answer point is the region's bottom-left corner, so the box is the
// rectangle's Minkowski expansion by (a, b) toward min. Only the open
// interior is forbidden — a region may share boundary with an excluded
// rectangle.
func ForbiddenBoxes(exclude []geom.Rect, a, b float64) []geom.Rect {
	if len(exclude) == 0 {
		return nil
	}
	boxes := make([]geom.Rect, len(exclude))
	for i, e := range exclude {
		boxes[i] = geom.Rect{MinX: e.MinX - a, MinY: e.MinY - b, MaxX: e.MaxX, MaxY: e.MaxY}
	}
	return boxes
}

// AppendPieces appends to dst the closed rectangles that cover space
// minus the open interiors of the forbidden boxes — at most four per box
// and piece cut, none of zero area — and returns dst. Nothing is appended
// when the boxes swallow the space. The order is fixed (boxes in turn;
// per box the pieces in turn; per piece left, right, bottom, top) because
// the order pieces are searched in decides ties between equally distant
// answers.
func AppendPieces(dst []geom.Rect, space geom.Rect, forbidden []geom.Rect) []geom.Rect {
	start := len(dst)
	dst = append(dst, space)
	for _, f := range forbidden {
		// Cut the current generation dst[start:n] into the next one behind
		// it, then move that down over its parent.
		n := len(dst)
		for i := start; i < n; i++ {
			dst = appendSubtract(dst, dst[i], f)
		}
		dst = append(dst[:start], dst[n:]...)
	}
	return dst
}

// appendSubtract appends up to four rectangles covering space minus the
// open interior of f.
func appendSubtract(dst []geom.Rect, space, f geom.Rect) []geom.Rect {
	if !space.IntersectsOpen(f) {
		return append(dst, space)
	}
	add := func(r geom.Rect) {
		if r.IsValid() && !r.IsEmpty() {
			dst = append(dst, r)
		}
	}
	add(geom.Rect{MinX: space.MinX, MinY: space.MinY, MaxX: f.MinX, MaxY: space.MaxY}) // left
	add(geom.Rect{MinX: f.MaxX, MinY: space.MinY, MaxX: space.MaxX, MaxY: space.MaxY}) // right
	midMinX, midMaxX := max(space.MinX, f.MinX), min(space.MaxX, f.MaxX)
	add(geom.Rect{MinX: midMinX, MinY: space.MinY, MaxX: midMaxX, MaxY: f.MinY}) // bottom
	add(geom.Rect{MinX: midMinX, MinY: f.MaxY, MaxX: midMaxX, MaxY: space.MaxY}) // top
	return dst
}
