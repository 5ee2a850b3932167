package sim

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"nucache/internal/failpoint"
)

// Cache is a content-addressed result store: an in-memory LRU over
// JSON-encoded values, optionally backed by an on-disk JSON store that
// survives restarts. Values round-trip through encoding/json, which is
// exact for float64, so a cached result is byte-identical to a fresh one.
//
// The disk tier self-heals: a corrupt entry (truncated write, bit rot)
// is quarantined on first read so it is never re-read and re-rejected,
// and a failing disk (read-only remount, volume full) degrades the
// cache to memory-only mode with a logged warning instead of failing
// requests.
//
// Disk entries are written inside an integrity envelope — the payload
// plus its SHA-256 — so corruption that still parses as JSON (a bit
// flip inside a float, a truncated-then-patched file) is detected by
// checksum instead of being served as truth. An entry that is not a
// complete v1 envelope is quarantined like any other corrupt entry.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	dir     string     // "" disables the disk tier
	diskOK  atomic.Bool
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache builds a cache holding up to capacity in-memory entries
// (minimum 1). dir, when non-empty, enables the persistent tier; it is
// created on first write.
func NewCache(capacity int, dir string) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
		dir:     dir,
	}
	c.diskOK.Store(true)
	return c
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// DiskHealthy reports whether the disk tier is still accepting writes.
// It is true for memory-only caches (nothing to be unhealthy about) and
// flips to false permanently once a disk write fails, at which point the
// cache serves from memory only.
func (c *Cache) DiskHealthy() bool { return c.dir == "" || c.diskOK.Load() }

// Persistent reports whether a disk tier was configured.
func (c *Cache) Persistent() bool { return c.dir != "" }

// Get looks the key up (memory first, then disk) and decodes the stored
// value into `into` (a pointer). A disk hit is promoted into memory. A
// disk entry that fails to decode is quarantined so the next lookup for
// the key recomputes instead of re-reading the corrupt file forever.
// A value with a Validate method (mrc.Profile) that fails it has failed
// to decode.
func (c *Cache) Get(key string, into any) bool {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		if decode(data, into) == nil {
			return true
		}
		// Memory entries are written by Put and should never be corrupt;
		// drop the entry anyway so a decode mismatch (e.g. a changed
		// result schema) heals by recomputation instead of recurring.
		c.evict(key, el)
		return false
	}
	c.mu.Unlock()
	if c.dir == "" {
		return false
	}
	path := c.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	payload, err := openEnvelope(data)
	if err != nil {
		c.quarantine(path, err)
		return false
	}
	if err := decode(payload, into); err != nil {
		c.quarantine(path, err)
		return false
	}
	c.putBytes(key, payload)
	return true
}

// decode unmarshals a cached value and, when it can check itself,
// validates it: an entry whose envelope is sound but whose value is not
// (an invalid profile) must be dropped and recomputed, not served.
// Validating after decoding, rather than in an UnmarshalJSON method,
// costs the payload no extra JSON scan on the advisor's hot path.
func decode(data []byte, into any) error {
	if err := json.Unmarshal(data, into); err != nil {
		return err
	}
	if v, ok := into.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// diskEnvelope wraps a disk entry's payload with its own SHA-256 so
// bit rot is detected by checksum, not by whether it happens to break
// JSON syntax.
type diskEnvelope struct {
	V       int             `json:"v"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// sealEnvelope wraps a payload for the disk tier.
func sealEnvelope(payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(diskEnvelope{V: 1, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
}

// openEnvelope extracts and verifies a disk entry's payload. Anything
// that is not a complete v1 envelope is an error for the quarantine
// path, as is a checksum mismatch (also counted in
// nucache_cache_checksum_fails).
func openEnvelope(data []byte) ([]byte, error) {
	var env diskEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.V != 1 || env.SHA256 == "" || env.Payload == nil {
		return nil, fmt.Errorf("sim: cache entry is not a v1 envelope (v=%d)", env.V)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		CacheChecksumFails.Add(1)
		return nil, fmt.Errorf("sim: cache entry checksum mismatch: payload sha256 %s, envelope says %s", got, env.SHA256)
	}
	return env.Payload, nil
}

// evict removes a known-bad memory entry, tolerating concurrent
// replacement (only the exact element observed corrupt is removed).
func (c *Cache) evict(key string, el *list.Element) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; ok && cur == el {
		c.order.Remove(cur)
		delete(c.entries, key)
	}
}

// quarantine moves a corrupt disk entry aside (or deletes it if even
// that fails) so it is inspected at most once. Counted in
// nucache_cache_quarantined.
func (c *Cache) quarantine(path string, cause error) {
	CacheQuarantined.Add(1)
	qpath := path + ".quarantined"
	if err := os.Rename(path, qpath); err != nil {
		// Read-only disk or concurrent removal: removing is best
		// effort too; a persistent failure just means one wasted
		// re-read per restart, never a wrong result.
		_ = os.Remove(path)
		qpath = "(removed)"
	}
	slog.Warn("sim cache: quarantined corrupt entry",
		"path", path, "moved_to", qpath, "error", cause.Error())
}

// Put stores a JSON-marshalable value under the key, evicting the
// least-recently-used in-memory entry past capacity and writing through
// to the disk tier when enabled. A disk-tier failure (unwritable or
// full volume) degrades the cache to memory-only mode — logged once,
// counted in nucache_cache_disk_errors — and is not reported as an
// error: the in-memory store succeeded and the caller's result is
// valid.
func (c *Cache) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sim: cache encode: %w", err)
	}
	c.putBytes(key, data)
	if c.dir == "" || !c.diskOK.Load() {
		return nil
	}
	if err := c.writeDisk(key, data); err != nil {
		CacheDiskErrors.Add(1)
		if c.diskOK.CompareAndSwap(true, false) {
			slog.Warn("sim cache: disk tier failed; degrading to memory-only mode",
				"dir", c.dir, "error", err.Error())
		}
	}
	return nil
}

func (c *Cache) writeDisk(key string, data []byte) error {
	if err := failpoint.Inject("sim.cache.write"); err != nil {
		return err
	}
	sealed, err := sealEnvelope(data)
	if err != nil {
		return err
	}
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Write-then-rename keeps readers from seeing partial files.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, sealed, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PutEncoded stores an already-marshaled JSON value under the key in
// the in-memory tier only. It is the journal-resume seeding path: a
// checkpointed cell's bytes go straight back into the cache, so the
// resumed sweep decodes exactly what the original run computed (JSON
// round-trips float64 exactly) without touching the disk tier.
func (c *Cache) PutEncoded(key string, data []byte) {
	c.putBytes(key, append([]byte(nil), data...))
}

func (c *Cache) putBytes(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, data: data})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// diskPath maps a key to a file. Keys that are already hex digests are
// used as-is; anything else is hashed so arbitrary key strings stay
// filesystem-safe. A two-character fan-out directory keeps directories
// small under large sweeps.
func (c *Cache) diskPath(key string) string {
	name := key
	if !isHex(name) || len(name) != 64 {
		sum := sha256.Sum256([]byte(key))
		name = hex.EncodeToString(sum[:])
	}
	return filepath.Join(c.dir, name[:2], name+".json")
}

func isHex(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}
