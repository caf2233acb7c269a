package diskcache

import (
	"errors"
	"sync/atomic"

	"sessionproblem/internal/core"
	"sessionproblem/internal/engine"
)

// Codec converts cached values to and from the byte payloads the Store
// persists. Decode errors are treated exactly like corruption: the entry is
// a miss and the caller recomputes.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// Tiered is a two-level run cache: an in-memory engine.RunCache in front of
// a disk Store. Lookups try memory first, then disk (promoting disk hits
// into memory); writes land in both tiers. It implements engine.RunCacher,
// so the engine, harness, facade and daemon all use it through the same
// interface as the memory-only cache — attaching a directory changes where
// results live, never what they are.
type Tiered struct {
	mem   *engine.RunCache
	disk  *Store
	codec Codec

	hits     atomic.Int64
	misses   atomic.Int64
	memHits  atomic.Int64
	diskHits atomic.Int64
}

// NewTiered composes an in-memory cache and a disk store. mem may be nil,
// which degrades to a disk-only cache (every hit pays a decode).
func NewTiered(mem *engine.RunCache, disk *Store, codec Codec) *Tiered {
	return &Tiered{mem: mem, disk: disk, codec: codec}
}

// NewSummaryCache opens (or creates) a disk store at dir and wires it under
// an in-memory cache using the core run-summary codec — the composition the
// facade's WithCacheDir and the daemon use. mem is the memory tier to layer
// on top (a cache the caller already shares across calls); nil means a fresh
// one.
func NewSummaryCache(mem *engine.RunCache, dir string) (*Tiered, error) {
	disk, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if mem == nil {
		mem = engine.NewRunCache()
	}
	codec := Codec{
		Encode: func(v any) ([]byte, error) {
			sum, ok := v.(*core.RunSummary)
			if !ok {
				return nil, errNotSummary
			}
			return core.EncodeSummary(sum)
		},
		Decode: func(data []byte) (any, error) {
			return core.DecodeSummary(data)
		},
	}
	return NewTiered(mem, disk, codec), nil
}

// Get looks key up in memory, then on disk. A disk hit is decoded,
// promoted into the memory tier, and returned; a payload that fails to
// decode (foreign codec version, damage the envelope checksum happened not
// to catch) is a miss.
func (t *Tiered) Get(key string) (any, bool) {
	if t.mem != nil {
		if v, ok := t.mem.Get(key); ok {
			t.hits.Add(1)
			t.memHits.Add(1)
			return v, true
		}
	}
	if data, ok := t.disk.Get(key); ok {
		v, err := t.codec.Decode(data)
		if err == nil {
			t.hits.Add(1)
			t.diskHits.Add(1)
			if t.mem != nil {
				t.mem.Put(key, v)
			}
			return v, true
		}
	}
	t.misses.Add(1)
	return nil, false
}

// Put stores the value in both tiers. A value the codec cannot encode, or a
// disk write failure, still populates the memory tier — persistence is an
// optimization and its failures must never lose a computed result.
func (t *Tiered) Put(key string, v any) {
	if t.mem != nil {
		t.mem.Put(key, v)
	}
	if data, err := t.codec.Encode(v); err == nil {
		t.disk.Put(key, data) // counted by the store's WriteErrors on failure
	}
}

// Hits and Misses report lookups across both tiers, satisfying
// engine.RunCacher so the engine can attribute per-Execute deltas.
func (t *Tiered) Hits() int64   { return t.hits.Load() }
func (t *Tiered) Misses() int64 { return t.misses.Load() }

// Stats is a point-in-time snapshot of the tiered cache's accounting,
// surfaced by the daemon's /v1/stats endpoint.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	MemHits     int64 `json:"memHits"`
	DiskHits    int64 `json:"diskHits"`
	Corrupt     int64 `json:"corrupt"`
	WriteErrors int64 `json:"writeErrors"`
	MemEntries  int   `json:"memEntries"`
	DiskEntries int   `json:"diskEntries"`
}

// Stats snapshots the cache counters. DiskEntries walks the object tree;
// call it for reporting, not per-lookup.
func (t *Tiered) Stats() Stats {
	st := Stats{
		Hits:        t.hits.Load(),
		Misses:      t.misses.Load(),
		MemHits:     t.memHits.Load(),
		DiskHits:    t.diskHits.Load(),
		Corrupt:     t.disk.Corrupt(),
		WriteErrors: t.disk.WriteErrors(),
		DiskEntries: t.disk.Entries(),
	}
	if t.mem != nil {
		st.MemEntries = t.mem.Len()
	}
	return st
}

// Disk exposes the underlying store (tests and stats).
func (t *Tiered) Disk() *Store { return t.disk }

// MemoryTier returns the cache to load already-persisted summaries into,
// such as a journal replay: a two-tier cache's memory tier, so loading
// writes no disk object, or c itself for any other cache.
func MemoryTier(c engine.RunCacher) engine.RunCacher {
	if t, ok := c.(*Tiered); ok && t.mem != nil {
		return t.mem
	}
	return c
}

var errNotSummary = errors.New("diskcache: value is not a *core.RunSummary")
