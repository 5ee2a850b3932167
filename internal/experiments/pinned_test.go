package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// registryDigests is the sha256 of every Registry table's rendered text
// at pinnedOptions. The digests pin the experiment layer byte for byte:
// a changed policy constructor, seed, mix list or default shows up here
// even where the shape tests still pass. Refresh them only for a change
// that alters a table on purpose, and say which tables moved and why.
var registryDigests = map[string]string{
	"E4":     "3e6d43e066fc6089c36e97081149deca6dd0101906676a45972c5539c6f58c9a",
	"E1":     "35e1a417269d3a64aad27d40e70f832de87c6b13d3494ee757f41a615a532669",
	"E2":     "73b74e2ba921330bbbb22c2adfb28dc7afaef88fab854626dfc639f075886cd5",
	"E3/E14": "bd9855a20ec742fdbc52664e10f37ef144113b4cbb71b2c64029dd92a2ea59b6",
	"E5":     "d8424392b527dd79e601cabbb17fccde69088f3a189cb44624880cfe0e3a2d6e",
	"E6":     "12f4f8ced1847549f1358ae05f1e1fb7a9fbacf079e0c71a88d86dad4091dfe7",
	"E7":     "d557ff168dfa341ea8233770190b9c5aa1b3f842fb90081a0189df78275bbdc5",
	"E8":     "316e4060d44e75adc30e027023a695779317fb0190104a3a2d6fba1c44ebc43c",
	"E9":     "68a9fab66f0cc2eeff0391734a9226f8e9683e308805f2d1f4b444a10f8a690a",
	"E10":    "078efa95bb24ac6754ce2ccc60f85b90d95c51b24608d314911f3f1ec5f148d0",
	"E11":    "2c9f058da8519d1161156cca0da967a4b6f94b1a6ef5a554064b2f5782023a58",
	"E12":    "a7b50a5d99de11405c16865ebe7638444ea3c52828552bed4ae72feee8d4bc5d",
	"E13":    "551b9eba93dfb3b966397be325636a117da265d8ca0dd5eda9440d4fae8f2b8e",
	"E15":    "7fd6303fe40b20730981fa6c20f8156fa6d5daf0c89429029171309623c47477",
	"E16":    "a1867e1965103ddf985a9116a379cbc0793deb6acf89083d00fc763b29ff4370",
	"E17":    "660cb84796788eb554a512f845bb334e6b87936231e8b361f9df7495357baf87",
	"E18":    "8d669f3ed3b85bca4f0b2f8b726b17446e86051c078cf2fe4317ec7dd38381ee",
	"E19":    "3181a6d48820b8b1b1f8fddb02b974ddf719e33225e2c419efe13bf147cf3ff2",
	"E20":    "0c1f1e03982be49fd653cc8754e8dcc409c9f545d5b84311429273ad4183369d",
	"E21":    "75b72cf37cf3cf687dedcc17a538b2c1c953affbe22a7b18649317ccb85bd4b2",
}

// pinnedOptions is the tiny setting the digests were taken at.
var pinnedOptions = Options{Budget: 20_000, Seed: 7, MixLimit: 1, BenchLimit: 2}

func TestRegistryTablesPinned(t *testing.T) {
	for _, e := range Registry {
		t.Run(strings.ReplaceAll(e.ID, "/", "+"), func(t *testing.T) {
			tbl := e.Run(pinnedOptions)
			if tbl == nil {
				t.Fatal("nil table")
			}
			sum := sha256.Sum256([]byte(tbl.String()))
			got := hex.EncodeToString(sum[:])
			if want := registryDigests[e.ID]; got != want {
				t.Errorf("table digest %s, want %s; table:\n%s", got, want, tbl.String())
			}
		})
	}
}
