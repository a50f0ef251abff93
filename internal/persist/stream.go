package persist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Streaming-ingest persistence: the object record codec shared by the
// WAL and the ingest snapshot, and the snapshot store itself
// (DESIGN.md §10).
//
// A WAL record is one EncodeObjects payload — the objects of one
// Insert/InsertBatch call — or the log's schema record. The WAL is the
// engine's only durable form of ingested objects; an ingest snapshot is
// what builds that compacted their WAL left beside it, and the engine
// still reads one at boot but never writes one. A snapshot holds ingested objects (NEVER the seed
// corpus, which the caller reconstructs deterministically) together
// with the applied-LSN watermark, so recovery is
//
//	seed ++ snapshot objects ++ replay of WAL records with LSN > appliedLSN.
//
// Putting the watermark INSIDE the snapshot makes the snapshot rename
// the single atomic commit point of a save: there is no ordering of
// crashes in which the watermark vouches for objects that are not in
// the file it arrived with.

// Object codec (little endian):
//
//	u32 count
//	per object: f64 X, f64 Y, then per schema attribute:
//	  categorical → uvarint domain index
//	  numeric     → u64 float bits
//
// The schema itself is NOT serialized — the caller re-binds the same
// schema on decode, and the WAL's schema record and the snapshot header
// carry a structural fingerprint to catch a mismatched binding before
// values are misread.

// maxStreamObjects bounds one payload's object count so a corrupted
// count field fails before it can size a giant allocation.
const maxStreamObjects = 1 << 26

// AppendObjects encodes objects onto buf per the object codec and
// returns the extended slice.
func AppendObjects(buf []byte, schema *attr.Schema, objs []attr.Object) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(objs)))
	nAttr := schema.Len()
	for i := range objs {
		o := &objs[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Loc.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Loc.Y))
		for j := 0; j < nAttr; j++ {
			if schema.At(j).Kind == attr.Categorical {
				buf = binary.AppendUvarint(buf, uint64(o.Values[j].Cat))
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Values[j].Num))
			}
		}
	}
	return buf
}

// EncodeObjects encodes objects per the object codec.
func EncodeObjects(schema *attr.Schema, objs []attr.Object) []byte {
	return AppendObjects(nil, schema, objs)
}

// DecodeObjects decodes an EncodeObjects payload against the schema it
// was encoded with. Damaged payloads (truncation, out-of-domain
// categorical indexes, trailing garbage) fail wrapping ErrCorrupt;
// decoding never panics.
func DecodeObjects(schema *attr.Schema, data []byte) ([]attr.Object, error) {
	objs, _, err := DecodeAppend(nil, nil, schema, data)
	return objs, err
}

// DecodeAppend is DecodeObjects appending the decoded objects to dst,
// each one's values carved from the spare capacity of arena. When that
// runs short, a new arena of twice the old one's capacity, or of the
// payload's need if more, takes over; the values carved before stay
// where they are. It returns the grown slices, and dst and arena as they
// were on an error. A replay of many small records (an Engine's boot over
// its WAL) so pays no allocation per record.
func DecodeAppend(dst []attr.Object, arena []attr.Value, schema *attr.Schema, data []byte) ([]attr.Object, []attr.Value, error) {
	if schema == nil {
		return dst, arena, fmt.Errorf("persist: DecodeObjects requires a schema")
	}
	if len(data) < 4 {
		return dst, arena, corruptf("object payload truncated before count")
	}
	count := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if count > maxStreamObjects {
		return dst, arena, corruptf("implausible object count %d", count)
	}
	nAttr := schema.Len()
	objs := slices.Grow(dst, int(count))
	vals := arena
	if need := int(count) * nAttr; cap(vals)-len(vals) < need {
		vals = make([]attr.Value, 0, max(need, 2*cap(vals)))
	}
	u64 := func() (uint64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return v, true
	}
	for i := uint32(0); i < count; i++ {
		var o attr.Object
		x, ok1 := u64()
		y, ok2 := u64()
		if !ok1 || !ok2 {
			return dst, arena, corruptf("object %d truncated at location", i)
		}
		o.Loc = geom.Point{X: math.Float64frombits(x), Y: math.Float64frombits(y)}
		at := len(vals)
		vals = vals[:at+nAttr]
		o.Values = vals[at : at+nAttr : at+nAttr]
		for j := 0; j < nAttr; j++ {
			a := schema.At(j)
			if a.Kind == attr.Categorical {
				c, n := binary.Uvarint(data)
				if n <= 0 {
					return dst, arena, corruptf("object %d truncated at attribute %q", i, a.Name)
				}
				data = data[n:]
				if c >= uint64(len(a.Domain)) {
					return dst, arena, corruptf("object %d attribute %q has categorical index %d outside domain [0,%d)",
						i, a.Name, c, len(a.Domain))
				}
				o.Values[j] = attr.CatValue(int(c))
			} else {
				v, ok := u64()
				if !ok {
					return dst, arena, corruptf("object %d truncated at attribute %q", i, a.Name)
				}
				o.Values[j] = attr.NumValue(math.Float64frombits(v))
			}
		}
		objs = append(objs, o)
	}
	if len(data) != 0 {
		return dst, arena, corruptf("%d trailing bytes after %d objects", len(data), count)
	}
	return objs, vals, nil
}

// SchemaFingerprint is a structural fingerprint of a schema — attribute
// names, kinds and domains — used to catch a WAL or snapshot decoded
// against the wrong schema. Like the composite fingerprint, it cannot see
// selection functions; structural equality is the contract.
func SchemaFingerprint(s *attr.Schema) string {
	h := fnv.New64a()
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		fmt.Fprintf(h, "%q/%d:", a.Name, a.Kind)
		for _, d := range a.Domain {
			fmt.Fprintf(h, "%q,", d)
		}
		io.WriteString(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// A schema record is the one WAL record that holds no objects: the
// fingerprint of the schema the log's object records are encoded under.
// Object records carry bare categorical domain indexes, so without it a
// boot under a schema with a renamed attribute or a renamed or reordered
// domain would replay every record into the wrong labels. The engine
// appends one to a log it opens without one, and every later boot checks
// it (DESIGN.md §10).
//
//	u32 schemaRecordTag | fingerprint bytes
//
// The tag is above maxStreamObjects, so no object payload begins with it,
// and a build that predates schema records refuses the log as corrupt
// rather than misreading it.
const schemaRecordTag = math.MaxUint32

// EncodeSchemaRecord encodes the schema record of schema.
func EncodeSchemaRecord(schema *attr.Schema) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, schemaRecordTag)
	return append(buf, SchemaFingerprint(schema)...)
}

// CheckSchemaRecord reports whether payload is a schema record. If it
// is, a fingerprint other than schema's wraps ErrMismatch.
func CheckSchemaRecord(schema *attr.Schema, payload []byte) (bool, error) {
	if len(payload) < 4 || binary.LittleEndian.Uint32(payload) != schemaRecordTag {
		return false, nil
	}
	if fp, got := string(payload[4:]), SchemaFingerprint(schema); fp != got {
		return true, mismatchf("WAL written under schema %q, opening under %s", fp, got)
	}
	return true, nil
}

// Ingest snapshot format (little endian):
//
//	magic "ASRSNAP1"
//	u32 version (currently 1)
//	u64 appliedLSN
//	u32 len(schema fingerprint), fingerprint bytes
//	object payload (EncodeObjects)
//	u64 fnv-64a of every byte after the magic
var snapMagic = [8]byte{'A', 'S', 'R', 'S', 'N', 'A', 'P', '1'}

const snapVersion = 1

// SaveIngestSnapshot atomically persists an ingested-object snapshot
// (the engine no longer calls it; it stays for tools and tests that
// build the state directories earlier builds left):
// the bytes go to a same-directory temp file, are fsynced, and land by
// atomic rename, and the directory is fsynced so the rename survives a
// crash. A crash at any instant leaves either the previous complete
// snapshot or the new one at path, never a torn file. The compact.save
// failpoint cuts the write (ActShortWrite tears the temp file, which
// never becomes visible); persist.save.sync and persist.save.rename cut
// the fsyncs and the rename.
func SaveIngestSnapshot(path string, schema *attr.Schema, objs []attr.Object, appliedLSN uint64) (err error) {
	if schema == nil {
		return fmt.Errorf("persist: SaveIngestSnapshot requires a schema")
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp snapshot file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	out := EncodeIngestSnapshot(schema, objs, appliedLSN)
	if _, err = (&faultWriter{w: tmp, point: "compact.save"}).Write(out); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err = syncFile(tmp); err != nil {
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot temp: %w", err)
	}
	if err = rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("persist: syncing directory: %w", err)
	}
	return nil
}

// LoadIngestSnapshot reads a snapshot saved by SaveIngestSnapshot. A
// missing file is NOT an error — it is the empty snapshot (the state
// directory of any build that never compacted), reported as
// (nil, 0, nil). Damage wraps ErrCorrupt; a snapshot written under a
// structurally different schema wraps ErrMismatch.
func LoadIngestSnapshot(path string, schema *attr.Schema) ([]attr.Object, uint64, error) {
	if schema == nil {
		return nil, 0, fmt.Errorf("persist: LoadIngestSnapshot requires a schema")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return DecodeIngestSnapshot(schema, raw)
}

// EncodeIngestSnapshot serializes the ingest snapshot (magic, header,
// object payload, trailing checksum) per the format above.
func EncodeIngestSnapshot(schema *attr.Schema, objs []attr.Object, appliedLSN uint64) []byte {
	fp := []byte(SchemaFingerprint(schema))
	body := make([]byte, 0, 24+len(fp)+4+len(objs)*32)
	body = binary.LittleEndian.AppendUint32(body, snapVersion)
	body = binary.LittleEndian.AppendUint64(body, appliedLSN)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(fp)))
	body = append(body, fp...)
	body = AppendObjects(body, schema, objs)

	h := fnv.New64a()
	h.Write(body)
	out := make([]byte, 0, len(snapMagic)+len(body)+8)
	out = append(out, snapMagic[:]...)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint64(out, h.Sum64())
	return out
}

// DecodeIngestSnapshot decodes EncodeIngestSnapshot bytes against the
// schema they were written under. Damage wraps ErrCorrupt, a
// structurally different schema wraps ErrMismatch; decoding never
// panics however the bytes are mangled (FuzzReadSnapshot's contract).
func DecodeIngestSnapshot(schema *attr.Schema, raw []byte) ([]attr.Object, uint64, error) {
	if schema == nil {
		return nil, 0, fmt.Errorf("persist: DecodeIngestSnapshot requires a schema")
	}
	if len(raw) < len(snapMagic)+8 {
		return nil, 0, corruptf("snapshot truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(snapMagic)]) != string(snapMagic[:]) {
		return nil, 0, corruptf("not an ingest snapshot (magic %q)", raw[:len(snapMagic)])
	}
	body, tail := raw[len(snapMagic):len(raw)-8], raw[len(raw)-8:]
	h := fnv.New64a()
	h.Write(body)
	if binary.LittleEndian.Uint64(tail) != h.Sum64() {
		return nil, 0, corruptf("snapshot checksum mismatch")
	}
	if len(body) < 16 {
		return nil, 0, corruptf("snapshot header truncated")
	}
	if v := binary.LittleEndian.Uint32(body); v != snapVersion {
		return nil, 0, corruptf("unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	appliedLSN := binary.LittleEndian.Uint64(body[4:])
	fpLen := binary.LittleEndian.Uint32(body[12:])
	if fpLen > 1<<12 || len(body) < 16+int(fpLen) {
		return nil, 0, corruptf("implausible snapshot fingerprint length %d", fpLen)
	}
	fp := string(body[16 : 16+fpLen])
	if got := SchemaFingerprint(schema); got != fp {
		return nil, 0, mismatchf("snapshot written under schema %s, loading under %s", fp, got)
	}
	objs, err := DecodeObjects(schema, body[16+fpLen:])
	if err != nil {
		return nil, 0, err
	}
	return objs, appliedLSN, nil
}
