package cpu

import "testing"

// TestUntagPCInvertsTag pins the core-tag layout's one decoder against
// the encoder: every core and every PC below the tag bits round-trip.
func TestUntagPCInvertsTag(t *testing.T) {
	for _, pc := range []uint64{0, 0x400100, 1<<corePCShift - 1} {
		for core := 0; core < 16; core++ {
			_, tagged := tag(core, 0, pc)
			if c, raw := UntagPC(tagged); c != uint64(core) || raw != pc {
				t.Fatalf("UntagPC(tag(%d, %#x)) = (%d, %#x)", core, pc, c, raw)
			}
		}
	}
}
