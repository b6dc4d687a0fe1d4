package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0)
	var fills atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrCompute(context.Background(), "k", func() (any, error) {
				fills.Add(1)
				close(started)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	<-started
	// Hold the fill open until every other goroutine has observed the
	// in-flight entry (each increments the coalesced counter before
	// blocking on the fill), so all 15 exercise the singleflight path.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters coalesced", c.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills for one key, want 1", n)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats %+v, want 1 miss and %d coalesced", st, waiters-1)
	}
}

func TestCacheHitCountsAndValues(t *testing.T) {
	c := NewCache(0)
	fill := func() (any, error) { return 42, nil }
	if _, err := c.GetOrCompute(context.Background(), "a", fill); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetOrCompute(context.Background(), "a", func() (any, error) {
		t.Fatal("refilled a cached key")
		return nil, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("hit returned %v, %v", v, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(context.Background(), "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed fill left %d entries resident", c.Len())
	}
	v, err := c.GetOrCompute(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: %v, %v", v, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity rounds up to one entry per shard; filling many keys per
	// shard must keep residency at the bound and count evictions.
	c := NewCache(cacheShards)
	const keys = 40 * cacheShards
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if _, err := c.GetOrCompute(context.Background(), k, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > cacheShards {
		t.Fatalf("%d entries resident, capacity %d", got, cacheShards)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Misses != keys {
		t.Fatalf("%d misses, want %d", st.Misses, keys)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(0)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _ = c.GetOrCompute(context.Background(), "slow", func() (any, error) {
			close(started)
			<-release
			return "done", nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := c.GetOrCompute(ctx, "slow", func() (any, error) { return nil, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want deadline exceeded", err)
	}
}

func TestPoolDrainRejectsNewWork(t *testing.T) {
	p := newWorkPool(2, 4)
	v, err := p.DoLane(context.Background(), laneInteractive, func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("DoLane: %v, %v", v, err)
	}
	p.Close()
	if _, err := p.DoLane(context.Background(), laneInteractive, func() (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain DoLane err = %v, want ErrDraining", err)
	}
	p.Close() // idempotent
}

func TestPoolDrainCompletesQueuedWork(t *testing.T) {
	p := newWorkPool(1, 8)
	var done atomic.Int64
	var wg sync.WaitGroup
	block := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.DoLane(context.Background(), laneInteractive, func() (any, error) { <-block; done.Add(1); return nil, nil })
	}()
	// Queue more behind the blocked one.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.DoLane(context.Background(), laneInteractive, func() (any, error) { done.Add(1); return nil, nil })
		}()
	}
	// Let the submissions land, then drain while releasing the head.
	time.Sleep(20 * time.Millisecond)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	p.Close()
	wg.Wait()
	if n := done.Load(); n != 5 {
		t.Fatalf("%d tasks completed across drain, want 5", n)
	}
}

func TestPoolQueueFullHonorsContext(t *testing.T) {
	p := newWorkPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	go p.DoLane(context.Background(), laneInteractive, func() (any, error) { <-block; return nil, nil })
	time.Sleep(10 * time.Millisecond) // head task occupies the worker
	go p.DoLane(context.Background(), laneInteractive, func() (any, error) { return nil, nil })
	time.Sleep(10 * time.Millisecond) // second task fills the queue
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.DoLane(ctx, laneInteractive, func() (any, error) { return nil, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-queue DoLane err = %v, want deadline exceeded", err)
	}
}

// TestCacheShardLayout pins the fixed shard layout the masked router
// relies on: NewCache builds cacheShards shards, that count is a power
// of two (shardFor selects with h & (shards-1), which is only a uniform
// modulus then), and distinct keys reach every shard.
func TestCacheShardLayout(t *testing.T) {
	if cacheShards <= 0 || cacheShards&(cacheShards-1) != 0 {
		t.Fatalf("cacheShards = %d, want a power of two", cacheShards)
	}
	c := NewCache(0)
	if got := len(c.ShardLens()); got != cacheShards {
		t.Fatalf("NewCache built %d shards, want %d", got, cacheShards)
	}
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := c.GetOrCompute(context.Background(), key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range c.ShardLens() {
		if n == 0 {
			t.Errorf("shard %d holds none of 4096 distinct keys", i)
		}
	}
}
