package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{Job: "j1", Var: "qcloud", Step: 3, TX: 1, TY: 2}
	fills := 0
	get := func() []byte {
		blob, err := c.GetOrFill(k, func() ([]byte, error) {
			fills++
			return []byte("tile"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if string(get()) != "tile" || string(get()) != "tile" {
		t.Fatal("wrong blob")
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Bytes != 4 {
		t.Fatalf("stats %+v, want 1 miss, 1 hit, 4 bytes", st)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{Job: "j1", Var: "olr"}
	var fills atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, err := c.GetOrFill(k, func() ([]byte, error) {
				fills.Add(1)
				<-release
				return []byte("once"), nil
			})
			if err != nil || string(blob) != "once" {
				t.Errorf("blob %q err %v", blob, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times under concurrent misses, want 1", got)
	}
}

func TestCacheByteBudgetEviction(t *testing.T) {
	// A tiny budget, a fraction of the blobs filled, so eviction must fire
	// and the resident bytes stay within the exact total.
	c := NewCache(16 * 64)
	blob := make([]byte, 48)
	for i := 0; i < 100; i++ {
		k := Key{Job: "j", Var: "v", Step: i}
		if _, err := c.GetOrFill(k, func() ([]byte, error) { return blob, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte budget")
	}
	if st.Bytes > 16*64 {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
}

func TestCacheInvalidateJob(t *testing.T) {
	c := NewCache(1 << 20)
	for i := 0; i < 10; i++ {
		for _, job := range []string{"a", "b"} {
			k := Key{Job: job, Var: "v", Step: i}
			c.GetOrFill(k, func() ([]byte, error) { return []byte("xxxx"), nil })
		}
	}
	c.InvalidateJob("a")
	// Every "a" key must refill; every "b" key must still hit.
	var fills int
	for i := 0; i < 10; i++ {
		c.GetOrFill(Key{Job: "a", Var: "v", Step: i}, func() ([]byte, error) {
			fills++
			return []byte("xxxx"), nil
		})
		c.GetOrFill(Key{Job: "b", Var: "v", Step: i}, func() ([]byte, error) {
			fills += 100
			return []byte("xxxx"), nil
		})
	}
	if fills != 10 {
		t.Fatalf("refills = %d, want exactly the 10 invalidated keys", fills)
	}

	// A fresh snapshot drops the job's older steps: invalidation leaves the
	// other job's bytes exact, a rolled-back step caches again, and a job
	// with no entries left keeps no index behind.
	c.InvalidateJob("a")
	if got, want := c.Stats().Bytes, int64(4*10); got != want {
		t.Fatalf("after invalidating a: %d bytes, want %d (all of b)", got, want)
	}
	if _, ok := c.jobs["a"]; ok {
		t.Fatal("an invalidated job left its index entry behind")
	}
	fills = 0
	for i := 0; i < 2; i++ {
		c.GetOrFill(Key{Job: "a", Var: "v", Step: 0}, func() ([]byte, error) {
			fills++
			return []byte("xxxx"), nil
		})
	}
	if fills != 1 {
		t.Fatalf("a step-0 fill after invalidation ran %d times, want 1 (cached)", fills)
	}
	c.InvalidateJob("a")
	c.InvalidateJob("a")
	c.InvalidateJob("b")
	if st := c.Stats(); st.Bytes != 0 || len(c.jobs) != 0 || len(c.items) != 0 || c.ll.Len() != 0 {
		t.Fatalf("after invalidating every job: %d bytes, %d indexed jobs, %d items, %d entries", st.Bytes, len(c.jobs), len(c.items), c.ll.Len())
	}
}

func TestCacheEvictionDropsEmptyJobIndex(t *testing.T) {
	c := NewCache(8)
	c.GetOrFill(Key{Job: "a"}, func() ([]byte, error) { return []byte("xxxx"), nil })
	for i := 0; i < 2; i++ {
		c.GetOrFill(Key{Job: "b", Step: i}, func() ([]byte, error) { return []byte("xxxx"), nil })
	}
	if _, ok := c.jobs["a"]; ok || len(c.jobs["b"]) != 2 {
		t.Fatalf("after budget eviction the index holds %v, want only b's 2 keys", c.jobs)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	blob, err := c.GetOrFill(Key{}, func() ([]byte, error) { return []byte("x"), nil })
	if err != nil || string(blob) != "x" {
		t.Fatalf("nil cache GetOrFill: %q %v", blob, err)
	}
	c.InvalidateJob("a")
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestCacheConcurrentMixed(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Job: fmt.Sprintf("j%d", i%3), Var: "v", Step: i % 17, TX: w % 2}
				c.GetOrFill(k, func() ([]byte, error) { return make([]byte, 100), nil })
				if i%50 == 0 {
					c.InvalidateJob("j0")
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkTileCacheHit(b *testing.B) {
	c := NewCache(1 << 20)
	k := Key{Job: "j", Var: "qcloud"}
	blob := make([]byte, tileHeaderLen+4*TileSize*TileSize)
	c.GetOrFill(k, func() ([]byte, error) { return blob, nil })
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GetOrFill(k, func() ([]byte, error) { return nil, nil })
	}
}
