package metrics

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV emits the table in CSV form (headers first). The title is not
// included; use the file name to carry it.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to dir/<slug-of-title>.csv and returns the
// path; dir (and any missing parents) are created.
func (t *Table) SaveCSV(dir string) (string, error) {
	path := filepath.Join(dir, slug(t.Title)+".csv")
	return path, writeFile(path, t.WriteCSV)
}

// writeFile creates path's parent directories and streams one writer
// into it. All table writers funnel through here so none of them can
// assume the output directory already exists.
func writeFile(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slug converts a table title into a safe file stem ("E6: 2-core ..." ->
// "e6-2-core-...").
func slug(title string) string {
	if title == "" {
		return "table"
	}
	var b strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	out := strings.Trim(b.String(), "-")
	if len(out) > 64 {
		out = out[:64]
	}
	if out == "" {
		return "table"
	}
	return out
}
