package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("E6: 2-core weighted speedup", "mix", "LRU", "NUcache")
	t.AddRow("mix2-01", "1.000", "+9.6%")
	t.AddRow("mix2-02", "1.000", "+4.2%")
	return t
}

func TestWriteJSONShape(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got TableJSON
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "E6: 2-core weighted speedup" || len(got.Headers) != 3 || len(got.Rows) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Rows[1][2] != "+4.2%" {
		t.Fatalf("cell: %+v", got.Rows)
	}
}

// The writers must create missing parent directories — saving artifacts
// into a fresh results tree was previously an error.
func TestSaveCreatesParentDirectories(t *testing.T) {
	base := t.TempDir()
	nested := filepath.Join(base, "does", "not", "exist")

	csvPath, err := sampleTable().SaveCSV(nested)
	if err != nil {
		t.Fatalf("SaveCSV into missing dirs: %v", err)
	}
	jsonPath, err := sampleTable().SaveJSON(nested)
	if err != nil {
		t.Fatalf("SaveJSON into missing dirs: %v", err)
	}
	for _, p := range []string{csvPath, jsonPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "mix,LRU,NUcache\n") {
		t.Fatalf("csv content:\n%s", data)
	}
}
