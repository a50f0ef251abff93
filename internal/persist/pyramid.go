package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
)

// Binary pyramid format (little endian):
//
//	magic "ASRSPYR1"
//	u32 version (currently 6)
//	u32 len(fingerprint), fingerprint bytes
//	u32 n, chans, eff, mmSlots
//	f64   scale[eff]
//	i32   lo[chans]
//	i32   order[n]
//	u64 fnv-64a of every byte after the magic
//
// The file stores what the dataset does not hold and a boot cannot
// afford to derive: the limbs' certificate — each limb's power-of-two
// scale and each channel's first extra limb (-1 for none) — and the
// master order, which costs a sort over n to recompute and 4 bytes an
// object to read. Everything else is re-derived at load
// (dssearch.PyramidFromSnapshot): the anchors from the objects in the
// stored order, the anchor-bin level over them (a function of the
// anchors), the limb inverses and owners from the scales, the
// contribution and min/max tables by flattening ds.Objects[order[i]] and
// splitting under the stored scales. A scale that is not a power of two
// a limb may take — the 0 earlier builds wrote for a channel they could
// not certify among them — makes the file ErrCorrupt.
//
// A file of another version — version 1 carried summed-area planes per
// level, version 2 the contribution and min/max tables and per-channel
// certificate flags, version 3 a ladder of levels, version 4 the master
// ids sorted by anchor x and by anchor y, which only the GPS accuracy
// read, version 5 the anchor-bin level with its bin grid origin — is
// reported as ErrCorrupt, so asrs.LoadOrBuildPyramidFile quarantines and
// rebuilds it like any other unusable artifact. The composite aggregator
// is re-bound by the caller and verified via structural fingerprint; the
// dataset identity and the composite's selection functions are part of
// the file's contract.

var pyramidMagic = [8]byte{'A', 'S', 'R', 'S', 'P', 'Y', 'R', '1'}

const pyramidVersion = 6

// Error taxonomy for pyramid files. Every ReadPyramid/LoadPyramid
// failure wraps exactly one of these, so callers can decide the
// serviceable action with errors.Is instead of string matching:
//
//   - ErrCorrupt: the file's BYTES are bad — torn write, truncation,
//     bit rot, checksum or structural-guard failure. The artifact is
//     unusable and rebuildable; quarantine-and-rebuild (see
//     asrs.LoadOrBuildPyramidFile) is the right response.
//   - ErrMismatch: the file decodes but was built for a different
//     composite or dataset. That is a deployment error (stale or
//     misrouted artifact), not damage — rebuilding silently would hide
//     it, so callers surface it instead of quarantining.
var (
	ErrCorrupt  = errors.New("pyramid file corrupt")
	ErrMismatch = errors.New("pyramid does not match dataset/composite")
)

// corruptf builds an ErrCorrupt-tagged error; args may include a %w
// cause of their own.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("persist: "+format+": %w", append(args, ErrCorrupt)...)
}

// mismatchf builds an ErrMismatch-tagged error.
func mismatchf(format string, args ...any) error {
	return fmt.Errorf("persist: "+format+": %w", append(args, ErrMismatch)...)
}

// hashingWriter tees every written byte into an fnv-64a sum.
type hashingWriter struct {
	w io.Writer
	h hash.Hash64
	n int64
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	hw.n += int64(n)
	return n, err
}

// WritePyramid serializes a pyramid. Returns the byte count written.
func WritePyramid(w io.Writer, p *dssearch.Pyramid) (int64, error) {
	if p == nil {
		return 0, fmt.Errorf("persist: nil pyramid")
	}
	s := p.Snapshot()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(pyramidMagic[:]); err != nil {
		return 0, err
	}
	hw := &hashingWriter{w: bw, h: fnv.New64a()}
	write := func(v any) error { return binary.Write(hw, binary.LittleEndian, v) }

	if err := write(uint32(pyramidVersion)); err != nil {
		return hw.n, err
	}
	fp := []byte(p.Composite().Fingerprint())
	if err := write(uint32(len(fp))); err != nil {
		return hw.n, err
	}
	if _, err := hw.Write(fp); err != nil {
		return hw.n, err
	}
	for _, v := range []uint32{uint32(s.N), uint32(s.Chans), uint32(len(s.Scale)), uint32(s.MMSlots)} {
		if err := write(v); err != nil {
			return hw.n, err
		}
	}
	for _, v := range []any{s.Scale, s.Lo, s.Order} {
		if err := write(v); err != nil {
			return hw.n, err
		}
	}
	sum := hw.h.Sum64()
	if err := binary.Write(bw, binary.LittleEndian, sum); err != nil {
		return hw.n, err
	}
	return hw.n + int64(len(pyramidMagic)) + 8, bw.Flush()
}

// hashingReader tees every read byte into an fnv-64a sum.
type hashingReader struct {
	r io.Reader
	h hash.Hash64
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	return n, err
}

// ReadPyramid deserializes a pyramid written by WritePyramid, re-binding
// it to the dataset and composite it was built for. The composite is
// verified structurally via fingerprint and the payload via checksum;
// corrupt, truncated or mismatched files produce errors, never panics.
// The dataset must be the one the pyramid was built from — that
// identity, like the composite's selection functions, is part of the
// file's contract.
func ReadPyramid(r io.Reader, ds *attr.Dataset, f *agg.Composite) (*dssearch.Pyramid, error) {
	if ds == nil || f == nil {
		return nil, fmt.Errorf("persist: ReadPyramid requires the dataset and composite the pyramid was built with")
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, corruptf("reading pyramid magic: %w", err)
	}
	if magic != pyramidMagic {
		return nil, corruptf("not a pyramid file (magic %q)", magic[:])
	}
	hr := &hashingReader{r: br, h: fnv.New64a()}
	read := func(v any) error { return binary.Read(hr, binary.LittleEndian, v) }

	var version uint32
	if err := read(&version); err != nil {
		return nil, corruptf("reading pyramid version: %w", err)
	}
	if version != pyramidVersion {
		return nil, corruptf("unsupported pyramid version %d (want %d)", version, pyramidVersion)
	}
	var fpLen uint32
	if err := read(&fpLen); err != nil {
		return nil, corruptf("reading fingerprint length: %w", err)
	}
	if fpLen > 1<<16 {
		return nil, corruptf("implausible fingerprint length %d", fpLen)
	}
	fp := make([]byte, fpLen)
	if _, err := io.ReadFull(hr, fp); err != nil {
		return nil, corruptf("reading fingerprint: %w", err)
	}
	if got := f.Fingerprint(); got != string(fp) {
		return nil, mismatchf("composite mismatch: pyramid built for %q, got %q", fp, got)
	}

	var n, chans, eff, mmSlots uint32
	for _, p := range []*uint32{&n, &chans, &eff, &mmSlots} {
		if err := read(p); err != nil {
			return nil, corruptf("reading pyramid header: %w", err)
		}
	}
	const maxN = 1 << 28
	if n > maxN || chans > 1<<20 || eff > 1<<21 || mmSlots > 1<<16 {
		return nil, corruptf("implausible pyramid header n=%d chans=%d eff=%d mm=%d", n, chans, eff, mmSlots)
	}
	// Early structural checks double as allocation guards: a corrupted
	// length field must fail here, before it can size a giant slice.
	if int(n) != len(ds.Objects) {
		return nil, mismatchf("pyramid covers %d objects, dataset has %d", n, len(ds.Objects))
	}
	if int(chans) != f.Channels() || int(mmSlots) != f.MinMaxSlots() || eff < chans {
		return nil, mismatchf("pyramid channel layout mismatch (chans=%d eff=%d mm=%d)", chans, eff, mmSlots)
	}
	s := &dssearch.PyramidSnapshot{N: int(n), Chans: int(chans), MMSlots: int(mmSlots)}
	s.Scale = make([]float64, eff)
	s.Lo = make([]int32, chans)
	s.Order = make([]int32, n)
	for _, v := range []any{s.Scale, s.Lo, s.Order} {
		if err := read(v); err != nil {
			return nil, corruptf("reading pyramid limbs/order: %w", err)
		}
	}
	want := hr.h.Sum64()
	var sum uint64
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, corruptf("reading pyramid checksum: %w", err)
	}
	if sum != want {
		return nil, corruptf("pyramid checksum mismatch")
	}
	p, err := dssearch.PyramidFromSnapshot(ds, f, s)
	if err != nil {
		return nil, corruptf("rebuilding pyramid from snapshot: %w", err)
	}
	return p, nil
}
