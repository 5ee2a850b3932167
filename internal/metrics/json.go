package metrics

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// TableJSON is a Table's structured form, for machine consumers of the
// experiment artifacts (the text renderer stays the human surface).
type TableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// JSON returns the table's structured form. Rows are copied, so mutating
// the result does not alias the table.
func (t *Table) JSON() TableJSON {
	out := TableJSON{Title: t.Title, Headers: t.Headers, Rows: make([][]string, len(t.rows))}
	for i, r := range t.rows {
		out.Rows[i] = append([]string(nil), r...)
	}
	return out
}

// WriteJSON emits the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.JSON())
}

// SaveJSON writes the table to dir/<slug-of-title>.json and returns the
// path; dir (and any missing parents) are created.
func (t *Table) SaveJSON(dir string) (string, error) {
	path := filepath.Join(dir, slug(t.Title)+".json")
	return path, writeFile(path, t.WriteJSON)
}
