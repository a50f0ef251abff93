package asrs_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

func pyrFileFixture(t *testing.T) (*asrs.Dataset, *asrs.Composite) {
	t.Helper()
	ds := dataset.POISyn(600, 3)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds, f
}

// TestLoadOrBuildPyramidFileLifecycle walks the status machine:
// first boot builds, second boot loads, a corrupted file is
// quarantined and rebuilt, and the quarantined evidence survives.
func TestLoadOrBuildPyramidFileLifecycle(t *testing.T) {
	ds, f := pyrFileFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")

	_, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidBuilt {
		t.Fatalf("first boot: status=%v err=%v, want built", status, err)
	}
	_, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("second boot: status=%v err=%v, want loaded", status, err)
	}

	// Tear the file's tail: a crash mid-write on a non-atomic filesystem.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	p, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidRebuilt {
		t.Fatalf("corrupt boot: status=%v err=%v, want rebuilt", status, err)
	}
	if p == nil {
		t.Fatal("rebuilt pyramid is nil")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".corrupt-") && !strings.HasSuffix(e.Name(), ".manifest") {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("want 1 quarantined file, found %d (%v)", quarantined, ents)
	}

	// The rebuilt file must verify on the next boot.
	_, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("post-rebuild boot: status=%v err=%v, want loaded", status, err)
	}
}

// TestPyramidFileVersion1IsRebuilt: a file left by a build that wrote
// format version 1 (summed-area planes per level) is not decodable any
// more. Its header must read as corrupt, and a boot that finds it must
// set it aside and come up on a rebuilt pyramid.
func TestPyramidFileVersion1IsRebuilt(t *testing.T) { checkOldVersionRebuilt(t, 1) }

// TestPyramidFileVersion2IsRebuilt: so is a file of format version 2,
// which stored the contribution and min/max tables the dataset holds.
func TestPyramidFileVersion2IsRebuilt(t *testing.T) { checkOldVersionRebuilt(t, 2) }

// TestPyramidFileVersion3IsRebuilt: so is a file of format version 3,
// which stored a ladder of anchor-bin levels behind a level count. The
// file is laid out as version 3 laid it out, with five copies of the
// format-4 level, and boots as a rebuild.
func TestPyramidFileVersion3IsRebuilt(t *testing.T) {
	ds, f, cur := currentPyramidFile(t)
	cur = formatFour(ds, formatFive(ds, cur))
	// Version 4: magic, version, fingerprint length and bytes, the counts
	// n, chans, eff and mmSlots, the limbs and the three id orders, then
	// the level up to the checksum. Version 3 put a level count after the
	// counts and the levels one after the other.
	counts := 16 + int(binary.LittleEndian.Uint32(cur[12:16])) + 16
	word := func(at int) int { return int(binary.LittleEndian.Uint32(cur[at:])) }
	n, chans, eff := word(counts-16), word(counts-12), word(counts-8)
	level := counts + 8*eff + 4*chans + 4*3*n
	old := binary.LittleEndian.AppendUint32(slices.Clone(cur[:counts]), 5)
	old = append(old, cur[counts:level]...)
	for range 5 {
		old = append(old, cur[level:len(cur)-8]...)
	}
	binary.LittleEndian.PutUint32(old[8:12], 3)
	checkRebuilt(t, ds, f, sealed(old), "version-3")
}

// TestPyramidFileVersion4IsRebuilt: so is a file of format version 4,
// which stored the master ids sorted by anchor x and by anchor y — read
// only by the GPS accuracy — and no bin grid origin. The file is the one
// a format-4 build wrote (TestPyramidBytesPinned holds formatFour to
// that build's bytes), and boots as a rebuild.
func TestPyramidFileVersion4IsRebuilt(t *testing.T) {
	ds, f, cur := currentPyramidFile(t)
	checkRebuilt(t, ds, f, formatFour(ds, formatFive(ds, cur)), "version-4")
}

// TestPyramidFileVersion5IsRebuilt: so is a file of format version 5,
// which stored the anchor-bin level — its bin grid and origin, CSR bins
// and threshold arrays — after the master order. The file is the one a
// format-5 build wrote (TestPyramidBytesPinned holds formatFive to that
// build's bytes), and boots as a rebuild.
func TestPyramidFileVersion5IsRebuilt(t *testing.T) {
	ds, f, cur := currentPyramidFile(t)
	checkRebuilt(t, ds, f, formatFive(ds, cur), "version-5")
}

// formatFive lays a format-6 file out as format 5 wrote it: after the
// master order, the anchor-bin level a build raised over the anchors in
// that order — g = ⌊√n⌋ clamped to [8, 128], doubled while g² < n up to
// 256; bins of the anchors' extent over g from their minimum, the maximum
// clamped into the last bin; CSR bins, ascending ids within a bin; the
// id-anchored prefix-max and suffix-min runs of the bin columns' x and
// the bin rows' y.
func formatFive(ds *asrs.Dataset, cur []byte) []byte {
	word := func(at int) int { return int(binary.LittleEndian.Uint32(cur[at:])) }
	counts := 16 + word(12) + 16
	n, chans, eff := word(counts-16), word(counts-12), word(counts-8)
	order := counts + 8*eff + 4*chans
	pts := make([]asrs.Point, n)
	for i := range pts {
		pts[i] = ds.Objects[word(order+4*i)].Loc
	}
	g := min(max(int(math.Sqrt(float64(n))), 8), 128)
	for 2*g <= 256 && g*g < n {
		g *= 2
	}
	lo := asrs.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := asrs.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, p := range pts {
		lo = asrs.Point{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
		hi = asrs.Point{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
	}
	extent := func(lo, hi float64) float64 {
		if w := (hi - lo) / float64(g); w > 0 {
			return w
		}
		return 1
	}
	bw, bh := extent(lo.X, hi.X), extent(lo.Y, hi.Y)
	bin := func(v, lo, w float64) int { return max(min(int((v-lo)/w), g-1), 0) }
	bins := make([][]int32, g*g)
	cols, rows := make([][]int32, g), make([][]int32, g)
	for id, p := range pts {
		i, j := bin(p.X, lo.X, bw), bin(p.Y, lo.Y, bh)
		bins[j*g+i] = append(bins[j*g+i], int32(id))
		cols[i] = append(cols[i], int32(id))
		rows[j] = append(rows[j], int32(id))
	}
	// run is the id-anchored run over the lines from first in steps of
	// step: the first id attaining the running extreme, kept while no
	// later line's id beats it, -1 while the lines seen are empty.
	run := func(lines [][]int32, first, step int, beats func(a, b int32) bool) []int32 {
		out := make([]int32, g)
		best := int32(-1)
		for i := first; i >= 0 && i < g; i += step {
			line := int32(-1)
			for _, id := range lines[i] {
				if line < 0 || beats(id, line) {
					line = id
				}
			}
			if line >= 0 && (best < 0 || beats(line, best)) {
				best = line
			}
			out[i] = best
		}
		return out
	}
	x := func(a, b int32) bool { return pts[a].X > pts[b].X }
	xLow := func(a, b int32) bool { return pts[a].X < pts[b].X }
	y := func(a, b int32) bool { return pts[a].Y > pts[b].Y }
	yLow := func(a, b int32) bool { return pts[a].Y < pts[b].Y }

	old := slices.Clone(cur[:order+4*n])
	old = binary.LittleEndian.AppendUint32(old, uint32(g))
	for _, v := range []float64{bw, bh, lo.X, lo.Y} {
		old = binary.LittleEndian.AppendUint64(old, math.Float64bits(v))
	}
	start := int32(0)
	old = binary.LittleEndian.AppendUint32(old, 0)
	for _, ids := range bins {
		start += int32(len(ids))
		old = binary.LittleEndian.AppendUint32(old, uint32(start))
	}
	for _, ids := range bins {
		for _, id := range ids {
			old = binary.LittleEndian.AppendUint32(old, uint32(id))
		}
	}
	for _, r := range [][]int32{run(cols, 0, 1, x), run(cols, g-1, -1, xLow), run(rows, 0, 1, y), run(rows, g-1, -1, yLow)} {
		for _, id := range r {
			old = binary.LittleEndian.AppendUint32(old, uint32(id))
		}
	}
	binary.LittleEndian.PutUint32(old[8:12], 5)
	return sealed(old)
}

// formatFour lays a format-5 file out as format 4 wrote it: after the
// master order, the master ids sorted by anchor x and by anchor y, ties
// by id; in the level header, no bin grid origin.
func formatFour(ds *asrs.Dataset, cur []byte) []byte {
	word := func(at int) int { return int(binary.LittleEndian.Uint32(cur[at:])) }
	counts := 16 + word(12) + 16
	n, chans, eff := word(counts-16), word(counts-12), word(counts-8)
	order := counts + 8*eff + 4*chans
	level := order + 4*n
	anchor := func(id int32) asrs.Point { return ds.Objects[word(order+4*int(id))].Loc }
	old := slices.Clone(cur[:level])
	for _, coord := range []func(asrs.Point) float64{
		func(p asrs.Point) float64 { return p.X },
		func(p asrs.Point) float64 { return p.Y },
	} {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		slices.SortFunc(ids, func(a, b int32) int {
			return cmp.Or(cmp.Compare(coord(anchor(a)), coord(anchor(b))), cmp.Compare(a, b))
		})
		for _, id := range ids {
			old = binary.LittleEndian.AppendUint32(old, uint32(id))
		}
	}
	old = append(old, cur[level:level+4+2*8]...)      // g, bw, bh
	old = append(old, cur[level+4+4*8:len(cur)-8]...) // the bins and thresholds
	binary.LittleEndian.PutUint32(old[8:12], 4)
	return sealed(old)
}

// sealed appends the checksum that closes a pyramid file: the fnv-64a of
// everything after the magic.
func sealed(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b[8:])
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// checkOldVersionRebuilt writes a current file under an older version
// word and boots on it.
func checkOldVersionRebuilt(t *testing.T, version uint32) {
	ds, f, old := currentPyramidFile(t)
	binary.LittleEndian.PutUint32(old[8:12], version) // the u32 after the 8-byte magic
	checkRebuilt(t, ds, f, old, fmt.Sprintf("version-%d", version))
}

// currentPyramidFile returns the fixture and its pyramid file, pinning
// the format version the old-file tests step from.
func currentPyramidFile(t *testing.T) (*asrs.Dataset, *asrs.Composite, []byte) {
	t.Helper()
	ds, f := pyrFileFixture(t)
	p, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := asrs.WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[8:12]); got != 6 {
		t.Fatalf("current format version is %d; these tests pin the step to 6", got)
	}
	return ds, f, buf.Bytes()
}

// checkRebuilt requires an unusable file to read as corrupt, and a boot
// that finds it to keep it as one .corrupt-* sibling and come up on a
// rebuilt pyramid, whose file the next boot loads.
func checkRebuilt(t *testing.T, ds *asrs.Dataset, f *asrs.Composite, old []byte, what string) {
	t.Helper()
	if _, err := asrs.ReadPyramid(bytes.NewReader(old), ds, f); !errors.Is(err, asrs.ErrPyramidCorrupt) {
		t.Fatalf("ReadPyramid of a %s file: err = %v, want ErrPyramidCorrupt", what, err)
	}
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidRebuilt || got == nil {
		t.Fatalf("boot on a %s file: status=%v err=%v, want rebuilt", what, status, err)
	}
	kept, err := filepath.Glob(path + ".corrupt-*")
	if err != nil || len(kept) != 1 {
		t.Fatalf("want the %s file kept as one .corrupt-* sibling, found %v (err %v)", what, kept, err)
	}
	if b, err := os.ReadFile(kept[0]); err != nil || !bytes.Equal(b, old) {
		t.Fatalf("quarantined file differs from the %s file (err %v)", what, err)
	}
	if _, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f); err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("boot after the rebuild: status=%v err=%v, want loaded", status, err)
	}
}

// TestPyramidFileScaleZeroIsRebuilt: a file that stores a limb scale of
// 0 — the mark earlier builds left on a channel they could not certify —
// reads as corrupt, and a boot that finds it sets it aside and comes up on
// a rebuilt pyramid.
func TestPyramidFileScaleZeroIsRebuilt(t *testing.T) {
	ds, f, old := currentPyramidFile(t)
	// magic, version, fingerprint length and bytes, four u32 header words,
	// then the scales; the fnv-64a of everything after the magic closes
	// the file.
	fp := binary.LittleEndian.Uint32(old[12:16])
	scale := 16 + int(fp) + 16
	binary.LittleEndian.PutUint64(old[scale+8:], math.Float64bits(0)) // the second channel's scale
	checkRebuilt(t, ds, f, sealed(old[:len(old)-8]), "scale-0")
}

// TestPyramidFileTiesOutOfIndexOrderIsRebuilt: a file whose master order
// lists two objects at one location against their dataset order — as a
// file written while location ties were left to an unstable sort may —
// reads as corrupt, and a boot that finds it sets it aside and comes up
// on a rebuilt pyramid.
func TestPyramidFileTiesOutOfIndexOrderIsRebuilt(t *testing.T) {
	ds, f := pyrFileFixture(t)
	ds.Objects[7].Loc = ds.Objects[3].Loc
	p, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := asrs.WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	word := func(at int) int { return int(binary.LittleEndian.Uint32(old[at:])) }
	counts := 16 + word(12) + 16
	n, chans, eff := word(counts-16), word(counts-12), word(counts-8)
	order := counts + 8*eff + 4*chans
	at := func(obj int) int {
		for id := 0; id < n; id++ {
			if word(order+4*id) == obj {
				return order + 4*id
			}
		}
		t.Fatalf("object %d not in the master order", obj)
		return 0
	}
	i, j := at(3), at(7)
	if j-i != 4 {
		t.Fatalf("objects 3 and 7 share a location but are not adjacent in the master order (%d, %d)", i, j)
	}
	binary.LittleEndian.PutUint32(old[i:], 7)
	binary.LittleEndian.PutUint32(old[j:], 3)
	checkRebuilt(t, ds, f, sealed(old[:len(old)-8]), "ties-out-of-index-order")
}

// TestPyramidBytesPinned: the pyramid files of the zoo's composites —
// POISyn's F2 at 5 000 objects, its three sums two limbs each, and
// Tweet's F1 at 20 000 — are byte for byte those of the first format-6
// build, which dropped the anchor-bin level (raised again at load). Laid
// out as format 5 (formatFive), they are byte for byte the files of the
// last format-5 build, which wrote 120 827 and 426 412 bytes; laid out
// further as format 4 (formatFour), those of the first format-4 build,
// which wrote 160 811 and 586 396. (Format 3's ladders of five and six
// levels wrote 268 903 and 1 077 784.)
func TestPyramidBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name            string
		ds              *asrs.Dataset
		specs           []asrs.AggSpec
		size            int
		sha, sha5, sha4 string
	}{
		{"poisyn-5k-f2", dataset.POISyn(5000, 42), []asrs.AggSpec{{Kind: asrs.Sum, Attr: "visits"}, {Kind: asrs.Average, Attr: "rating"}},
			20147, "81229b638c7a101d0b36bd979ae9ec13e13a82d3214cf795a92d5a63cba5bd75",
			"7de58f47b56f0b066d46777cf114e4f48a936f63efdec8cab81106a4f3b69f85", "43b6bd12723853f0e03a31d1271a8489fc7726e28e47b9250fa99993e982f365"},
		{"tweet-20k-f1", dataset.Tweet(20000, 42), []asrs.AggSpec{{Kind: asrs.Distribution, Attr: "day"}},
			80132, "8431211628df0c1b0ca83acb09fa454bb4caa767e48f2c42d8a3477e79177e30",
			"8b848985378a218a5cb51ae7e9b6275683f973b87650547a4d94732a7f31ebcb", "2223df7a87d30443b04a372e805ab0e461de44a45037c4ca781624f87e66d4b8"},
	} {
		f, err := asrs.NewComposite(c.ds.Schema, c.specs...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asrs.BuildPyramid(c.ds, f)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := asrs.WritePyramid(&buf, p); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != c.size {
			t.Errorf("%s: pyramid file is %d bytes, want %d", c.name, buf.Len(), c.size)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s: pyramid file sha256 %x, want %s", c.name, sum, c.sha)
		}
		five := formatFive(c.ds, buf.Bytes())
		if sum := sha256.Sum256(five); hex.EncodeToString(sum[:]) != c.sha5 {
			t.Errorf("%s: laid out as format 5, sha256 %x, want the format-5 build's %s", c.name, sum, c.sha5)
		}
		if sum := sha256.Sum256(formatFour(c.ds, five)); hex.EncodeToString(sum[:]) != c.sha4 {
			t.Errorf("%s: laid out as format 4, sha256 %x, want the format-4 build's %s", c.name, sum, c.sha4)
		}
	}
}

// TestThreeLimbEndToEnd: a composite whose sums take chains of three
// limbs — values spread from 1e-12 to 1e12 — has a pyramid that
// round-trips through its file, folds an insert, and answers through
// either, and without one, Float64bits-equal to SearchBaseline.
func TestThreeLimbEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ds := dataset.Random(400, 100, 8)
	for i := range ds.Objects {
		ds.Objects[i].Values[1].Num = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
	}
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Sum, Attr: "val"}, asrs.AggSpec{Kind: asrs.Average, Attr: "val"})
	if err != nil {
		t.Fatal(err)
	}
	// Four channels can split (the count cannot): more extra limbs than
	// that means some channel takes three.
	if probe, err := dssearch.ProbeCertificate(ds, f); err != nil || probe.Limbs-probe.Channels <= 4 {
		t.Fatalf("probe %+v (%v): no chain of three limbs", probe, err)
	}
	p, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := asrs.WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := asrs.ReadPyramid(bytes.NewReader(buf.Bytes()), ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := asrs.WritePyramid(&again, loaded); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("the loaded pyramid writes other bytes (err %v)", err)
	}

	eng, err := asrs.NewEngine(&asrs.Dataset{Schema: ds.Schema, Objects: ds.Objects[:300]}, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range [][]float64{{3e11, 2}, {-4e-3, 7e-7}, {0, 1e10}} {
		req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: target}, A: 9, B: 7}
		if got := eng.Query(req); got.Err != nil {
			t.Fatal(got.Err)
		}
		want := asrs.SearchBaseline(ds, req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		for _, pyr := range []*asrs.Pyramid{nil, p, loaded} {
			r := req
			r.Options = &asrs.Options{Pyramid: pyr}
			got, _ := asrs.Answer(ds, nil, r)
			if got.Err != nil || math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
				t.Fatalf("target %v, pyramid %v: %+v (%v), the baseline %v", target, pyr != nil, got.Results, got.Err, want.Results[0].Dist)
			}
		}
	}
	if err := eng.InsertBatch(ds.Objects[300:]); err != nil {
		t.Fatal(err)
	}
	req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: []float64{3e11, 2}}, A: 9, B: 7}
	got, want := eng.Query(req), asrs.SearchBaseline(ds, req)
	if got.Err != nil || math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("after the insert: %+v (%v), the baseline %v", got.Results, got.Err, want.Results[0].Dist)
	}
	if st := eng.Stats(); st.PyramidFolds != 1 {
		t.Fatalf("pyramid folds %d, want the insert folded", st.PyramidFolds)
	}
}

// TestLoadOrBuildPyramidFileMismatchIsFatal: a pyramid built for a
// different composite must NOT be quarantined or silently rebuilt —
// it is a deployment error the operator has to see.
func TestLoadOrBuildPyramidFileMismatchIsFatal(t *testing.T) {
	ds, f := pyrFileFixture(t)
	other, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Count})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if _, _, err := asrs.LoadOrBuildPyramidFile(path, ds, other); err != nil {
		t.Fatal(err)
	}

	_, _, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if !errors.Is(err, asrs.ErrPyramidMismatch) {
		t.Fatalf("err = %v, want ErrPyramidMismatch", err)
	}
	// The artifact must be untouched: same path, no quarantine sibling.
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("mismatched artifact was moved: %v", serr)
	}
}

// TestSaveLoadPyramidFileAnswers: the exported file API round-trips
// bit-identical answers.
func TestSaveLoadPyramidFileAnswers(t *testing.T) {
	ds, f := pyrFileFixture(t)
	p, _, err := asrs.LoadOrBuildPyramidFile(filepath.Join(t.TempDir(), "a.bin"), ds, f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.bin")
	if err := asrs.SavePyramidFile(path, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := asrs.LoadPyramidFile(path, ds, f)
	if err != nil {
		t.Fatal(err)
	}

	target := make([]float64, f.Dims())
	target[0] = 10
	q := asrs.Query{F: f, Target: target}
	r1, res1, _, err := asrs.Search(ds, 5, 5, q, asrs.Options{Pyramid: p})
	if err != nil {
		t.Fatal(err)
	}
	r2, res2, _, err := asrs.Search(ds, 5, 5, q, asrs.Options{Pyramid: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || math.Float64bits(res1.Dist) != math.Float64bits(res2.Dist) || res1.Point != res2.Point {
		t.Fatalf("answers diverge: %v/%+v vs %v/%+v", r1, res1, r2, res2)
	}
}

// TestEngineLoadOrBuildSharesGeometry boots an engine of two composites
// twice over the same files, as the daemon does: the first boot builds
// both pyramids through the engine, the second loads both files. Either
// way the two installed pyramids hold one geometry, the engine's, and the
// files the engine built are the bytes of standalone builds.
func TestEngineLoadOrBuildSharesGeometry(t *testing.T) {
	ds := dataset.SingaporeScaled(2000, 7)
	category, err1 := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	poi, err2 := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	composites := []*asrs.Composite{category, poi}
	for boot, want := range []asrs.PyramidLoad{asrs.PyramidBuilt, asrs.PyramidLoaded} {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var geo *dssearch.Geometry
		for i, f := range composites {
			path := filepath.Join(dir, fmt.Sprintf("p%d", i))
			p, status, err := eng.LoadOrBuildPyramidFile(path, f)
			if err != nil || status != want {
				t.Fatalf("boot %d composite %d: status %v, err %v; want %v", boot, i, status, err, want)
			}
			installed, err := eng.Pyramid(f)
			if err != nil || installed != p {
				t.Fatalf("boot %d composite %d: the engine serves another pyramid than it returned (err %v)", boot, i, err)
			}
			if geo == nil {
				geo = p.Geometry()
			} else if p.Geometry() != geo {
				t.Fatalf("boot %d: the composites' pyramids hold two geometries", boot)
			}
			alone, err := asrs.BuildPyramid(ds, f)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if _, err := asrs.WritePyramid(&a, p); err != nil {
				t.Fatal(err)
			}
			if _, err := asrs.WritePyramid(&b, alone); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("boot %d composite %d: the engine's pyramid writes other bytes than a standalone build", boot, i)
			}
		}
		eng.Close()
	}
}
