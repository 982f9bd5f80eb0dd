package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached tile blob. Epoch is the owning job's
// invalidation epoch: a resize or restore bumps it, so stale-grid tiles
// can never be served even before InvalidateJob reclaims their bytes.
type Key struct {
	Job   string
	Var   string
	Epoch int64
	Step  int
	TX    int
	TY    int
	// Rect distinguishes assembled-response entries (TX = TY = -1, see
	// BuildResponse) from tile entries, which leave it zero. One byte
	// budget governs both tiers.
	X0, Y0, X1, Y1 int
}

// Cache is an LRU of encoded tile blobs with byte-budget eviction and
// singleflight fill: concurrent misses on one key encode the tile exactly
// once. Entries are indexed per job, so dropping one job's entries
// touches only those. One mutex guards the maps and the list; fills run
// unlocked. All methods are safe for concurrent use and safe on a nil
// *Cache (fills run uncached), so a disabled cache costs one pointer
// check.
type Cache struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	jobs     map[string]map[Key]struct{} // the keys of items, by Key.Job
	inflight map[Key]*call
	budget   int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

type entry struct {
	key  Key
	blob []byte
}

// call is one in-flight singleflight fill.
type call struct {
	done chan struct{}
	blob []byte
	err  error
}

// NewCache returns a cache bounded to budgetBytes of blob payload (a
// non-positive budget gets a 64 MiB default).
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	return &Cache{
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		jobs:     make(map[string]map[Key]struct{}),
		inflight: make(map[Key]*call),
		budget:   budgetBytes,
	}
}

// GetOrFill returns the cached blob for key, or runs fill once to
// produce it — concurrent callers missing on the same key share the one
// fill. A fill error is returned to every sharer and nothing is cached.
// On a nil cache, fill runs directly.
func (c *Cache) GetOrFill(key Key, fill func() ([]byte, error)) ([]byte, error) {
	if c == nil {
		return fill()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		blob := el.Value.(*entry).blob
		c.mu.Unlock()
		c.hits.Add(1)
		return blob, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return nil, cl.err
		}
		c.hits.Add(1)
		return cl.blob, nil
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.blob, cl.err = fill()
	c.misses.Add(1)

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.blob)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.blob, cl.err
}

// insertLocked adds a blob and evicts from the LRU tail past the byte
// budget. Callers hold c.mu.
func (c *Cache) insertLocked(key Key, blob []byte) {
	if el, ok := c.items[key]; ok {
		// A racing fill beat us; keep the incumbent.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, blob: blob})
	keys := c.jobs[key.Job]
	if keys == nil {
		keys = make(map[Key]struct{})
		c.jobs[key.Job] = keys
	}
	keys[key] = struct{}{}
	c.bytes.Add(int64(len(blob)))
	for c.bytes.Load() > c.budget && c.ll.Len() > 1 {
		c.evictLocked(c.ll.Back())
	}
}

func (c *Cache) evictLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	keys := c.jobs[e.key.Job]
	delete(keys, e.key)
	if len(keys) == 0 {
		delete(c.jobs, e.key.Job)
	}
	c.bytes.Add(-int64(len(e.blob)))
	c.evictions.Add(1)
}

// InvalidateJob drops every cached tile of one job, touching only that
// job's entries. It is called after a resize or restore, so the stale
// grid's bytes are reclaimed immediately (the epoch in the key already
// guarantees they could never be served), and whenever the job publishes
// a fresh snapshot, since older steps are no longer servable.
func (c *Cache) InvalidateJob(job string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.jobs[job] {
		c.evictLocked(c.items[key])
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
}

// Stats snapshots the cumulative hit/miss/eviction counters and the
// current resident byte count. Safe on a nil cache (all zeros).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
}
