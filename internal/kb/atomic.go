package kb

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a reader — including one that
// arrives after a crash mid-write — sees either the previous complete file
// or the new complete file, never a truncated mix. The data is written to a
// uniquely named temp file in the same directory (same filesystem, so the
// final rename is atomic), fsynced so the rename cannot be reordered ahead
// of the content reaching disk, and renamed over path.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("kb: atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("kb: atomic write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("kb: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("kb: atomic write %s: %w", path, err)
	}
	return nil
}
