package persist

import (
	"errors"
	"fmt"
	"io"
	"os"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/faultinject"
)

// Error taxonomy of the durable artifacts (the ingest snapshot, the
// object codec). Every decode failure wraps exactly one of these, so
// callers decide the serviceable action with errors.Is:
//
//   - ErrCorrupt: the BYTES are bad — torn write, truncation, bit rot,
//     checksum or structural-guard failure.
//   - ErrMismatch: the bytes decode but were written under another
//     schema — a deployment error, not damage.
var (
	ErrCorrupt  = errors.New("persisted state corrupt")
	ErrMismatch = errors.New("persisted state does not match schema")
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

// faultWriter interposes a write-path failpoint on every write:
// ActError fails outright, ActShortWrite lets a prefix through and then
// fails — the torn-write simulation.
type faultWriter struct {
	w     io.Writer
	point string
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if f, ok := faultinject.Check(fw.point); ok {
		switch f.Action {
		case faultinject.ActShortWrite:
			n := f.Bytes
			if n > len(p) {
				n = len(p)
			}
			m, _ := fw.w.Write(p[:n])
			return m, f.Err()
		case faultinject.ActSleep:
			f.Sleep()
		default:
			return 0, f.Err()
		}
	}
	return fw.w.Write(p)
}

// syncFile flushes a file's contents to stable storage, honoring the
// persist.save.sync failpoint.
func syncFile(f *os.File) error {
	if fi, ok := faultinject.Check("persist.save.sync"); ok && fi.Action != faultinject.ActSleep {
		return fi.Err()
	} else if ok {
		fi.Sleep()
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable. Errors are returned, not ignored: if the metadata flush
// fails the save is not crash-safe and the caller must know.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return syncFile(d)
}

// rename wraps os.Rename with the persist.save.rename failpoint.
func rename(oldpath, newpath string) error {
	if f, ok := faultinject.Check("persist.save.rename"); ok && f.Action != faultinject.ActSleep {
		return f.Err()
	} else if ok {
		f.Sleep()
	}
	return os.Rename(oldpath, newpath)
}

// SavePyramid writes nothing and returns nil: a pyramid is built at boot
// and never stored (DESIGN.md §6).
//
// Deprecated: kept for callers that still compile against it.
func SavePyramid(path string, p *dssearch.Pyramid) error { return nil }

// LoadPyramid builds the pyramid of (ds, f); path is not read.
//
// Deprecated: call dssearch.BuildPyramid.
func LoadPyramid(path string, ds *attr.Dataset, f *agg.Composite) (*dssearch.Pyramid, error) {
	return dssearch.BuildPyramid(ds, f)
}
