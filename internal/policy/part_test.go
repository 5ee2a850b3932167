package policy

import (
	"strings"
	"testing"
)

// TestCheckSplit: one entry per core, at least one way each, entries
// summing to the cache's ways.
func TestCheckSplit(t *testing.T) {
	for _, tc := range []struct {
		alloc       []int
		cores, ways int
		err         string // "" = valid
	}{
		{[]int{8, 8}, 2, 16, ""},
		{[]int{15, 1}, 2, 16, ""},
		{[]int{4, 4, 4, 4}, 4, 16, ""},
		{EvenSplit(3, 16), 3, 16, ""},
		{[]int{16}, 1, 16, ""},
		{nil, 2, 16, "0 entries for 2 cores"},
		{[]int{8, 4, 4}, 2, 16, "3 entries for 2 cores"},
		{[]int{16, 0}, 2, 16, "grants core 1 0 ways"},
		{[]int{-1, 17}, 2, 16, "grants core 0 -1 ways"},
		{[]int{3, 2}, 2, 16, "sums to 5 ways, cache has 16"},
		{[]int{10, 10}, 2, 16, "sums to 20 ways, cache has 16"},
	} {
		err := CheckSplit(tc.alloc, tc.cores, tc.ways)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("CheckSplit(%v, %d, %d) = %v; want nil", tc.alloc, tc.cores, tc.ways, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("CheckSplit(%v, %d, %d) = %v; want %q", tc.alloc, tc.cores, tc.ways, err, tc.err)
		}
	}
}
