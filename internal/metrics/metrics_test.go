package metrics

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestWeightedSpeedup(t *testing.T) {
	shared := []float64{0.5, 1.0}
	alone := []float64{1.0, 1.0}
	if got := WeightedSpeedup(shared, alone); got != 1.5 {
		t.Fatalf("WS = %v", got)
	}
	// Interference-free scores n.
	if got := WeightedSpeedup(alone, alone); got != 2 {
		t.Fatalf("WS ideal = %v", got)
	}
	// Zero alone IPC entries are skipped, not division-by-zero.
	if got := WeightedSpeedup([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("WS zero-alone = %v", got)
	}
}

func TestANTT(t *testing.T) {
	shared := []float64{0.5, 1.0}
	alone := []float64{1.0, 1.0}
	if got := ANTT(shared, alone); got != 1.5 {
		t.Fatalf("ANTT = %v", got)
	}
	if got := ANTT(nil, nil); got != 0 {
		t.Fatalf("ANTT empty = %v", got)
	}
}

func TestHarmonicSpeedup(t *testing.T) {
	shared := []float64{0.5, 1.0}
	alone := []float64{1.0, 1.0}
	// slowdowns: 2, 1 -> HS = 2/3.
	if got := HarmonicSpeedup(shared, alone); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("HS = %v", got)
	}
	if got := HarmonicSpeedup([]float64{0}, []float64{1}); got != 0 {
		t.Fatalf("HS degenerate = %v", got)
	}
}

func TestFairness(t *testing.T) {
	if got := Fairness([]float64{0.5, 1.0}, []float64{1, 1}); got != 0.5 {
		t.Fatalf("fairness = %v", got)
	}
	if got := Fairness([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Fatalf("fairness ideal = %v", got)
	}
	if got := Fairness(nil, nil); got != 0 {
		t.Fatalf("fairness empty = %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", F3(1.5))
	tb.AddRow("longer-name") // short row padded
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("missing value:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestFormatters(t *testing.T) {
	if F2(1.005) == "" || F3(0) != "0.000" {
		t.Fatal("formatters broken")
	}
	if got := Pct(1.096); got != "+9.6%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(0.9); got != "-10.0%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("E6: 2-core weighted speedup", "mix", "LRU", "NUcache")
	tb.AddRow("mix2-01", "2.000", "+7.7%")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, "mix,LRU,NUcache\n") {
		t.Fatalf("csv header wrong:\n%s", got)
	}
	if !strings.Contains(got, "mix2-01,2.000,+7.7%") {
		t.Fatalf("csv row wrong:\n%s", got)
	}
}

func TestSaveCSV(t *testing.T) {
	tb := NewTable("E6: demo / table", "a", "b")
	tb.AddRow("1", "2")
	dir := t.TempDir()
	path, err := tb.SaveCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "e6-demo-table.csv") {
		t.Fatalf("path = %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1,2") {
		t.Fatalf("content = %q", data)
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"":               "table",
		"!!!":            "table",
		"E1: Skew (top)": "e1-skew-top",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Fatalf("slug(%q) = %q, want %q", in, got, want)
		}
	}
	long := slug(strings.Repeat("a", 100))
	if len(long) != 64 {
		t.Fatalf("slug not truncated: %d", len(long))
	}
}
