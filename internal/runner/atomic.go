package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic creates or replaces path (mode 0644, parent directories
// created as needed) with what write streams into it, so that a reader —
// including one that arrives after a crash or an interrupt mid-write — sees
// either the previous complete file or the new complete file, never a
// truncated mix. write fills a uniquely named temp file in the same directory
// (same filesystem, so the final rename is atomic), which is fsynced so the
// rename cannot be reordered ahead of the content reaching disk, then renamed
// over path. If any step fails, the temp file is removed and path is left as
// it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	err = write(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// WriteJSON writes v to path through WriteFileAtomic as JSON indented by two
// spaces with a trailing newline, the form of every artifact the commands
// write (results/ summaries and reports, tune -metrics, -history files).
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}
