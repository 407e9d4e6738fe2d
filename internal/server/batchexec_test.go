package server

import (
	"math/rand"
	"testing"
)

// TestSpawnThreshold pins the fan-out policy's arithmetic: uniform
// sub-batches (≈ total/n) always clear the threshold, so a batch past the
// fan-out cutoff parallelizes regardless of how many shards split it, and
// the threshold never exceeds the absolute inline cap or drops below 1.
func TestSpawnThreshold(t *testing.T) {
	cases := []struct {
		total, n, cap, want int
	}{
		{3000, 16, inlineMinKeys, 93},    // mid-size batch, many shards: mean/2, not the cap
		{1 << 20, 8, inlineMinKeys, 256}, // big batch: absolute cap
		{2048, 256, inlineMinKeys, 4},    // cutoff batch, max shards: tiny but ≥ 1
		{100, 256, inlineMinKeys, 1},     // degenerate: floor at 1
		{64, 16, inlineMinRanges, 2},     // ranges scale the same way
	}
	for _, c := range cases {
		if got := spawnThreshold(c.total, c.n, c.cap); got != c.want {
			t.Errorf("spawnThreshold(%d, %d, %d) = %d, want %d", c.total, c.n, c.cap, got, c.want)
		}
		if mean := c.total / c.n; mean > 0 && spawnThreshold(c.total, c.n, c.cap) > mean {
			t.Errorf("threshold exceeds the mean sub-batch for total=%d n=%d: uniform batches would serialize", c.total, c.n)
		}
	}
}

// TestSkewedBatchEquivalence drives the mixed spawn-plus-inline path:
// range partitioning with keys clustered into one span gives one huge
// sub-batch (spawned) and many stragglers (inline), and the fan-out must
// still return bit-identical answers to the serial path.
func TestSkewedBatchEquivalence(t *testing.T) {
	s, err := NewSharded(FilterOptions{
		ExpectedKeys: 200_000, BitsPerKey: 16, Shards: 16, Partitioning: PartitionRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(86))
	span := ^uint64(0)/16 + 1
	keys := make([]uint64, 3*fanOutMinKeys)
	for i := range keys {
		if i%8 == 0 {
			keys[i] = rng.Uint64() // spread: most shards get a straggler sub-batch
		} else {
			keys[i] = rng.Uint64() % span // clustered: shard 0 gets the bulk
		}
	}
	s.InsertBatch(keys[:len(keys)/2])

	serial := make([]bool, len(keys))
	fan := make([]bool, len(keys))
	s.queryBatchSerial(keys, serial)
	s.MayContainBatch(keys, fan)
	for i := range serial {
		if serial[i] != fan[i] {
			t.Fatalf("skewed fan-out diverges at %d", i)
		}
	}

	// Range batch with the same skew: bulk of the ranges in shard 0's span.
	ranges := make([][2]uint64, 2*fanOutMinRanges*16)
	for i := range ranges {
		x := keys[rng.Intn(len(keys))]
		ranges[i] = [2]uint64{x - 100, x + 100}
	}
	rs := make([]bool, len(ranges))
	rf := make([]bool, len(ranges))
	s.rangeBatchSerial(ranges, rs)
	s.MayContainRangeBatch(ranges, rf)
	for i := range rs {
		if rs[i] != rf[i] {
			t.Fatalf("skewed range fan-out diverges at %d", i)
		}
	}
}

// TestScratchPoolRetentionCap pins the pool-hygiene rules: a scratch whose
// buffers outgrew the cap is dropped rather than recycled, so one
// worst-case request cannot pin its buffers in the pool forever; a
// bulk-sized one is recycled only maxBulkUses times; ordinary scratches
// keep circulating.
func TestScratchPoolRetentionCap(t *testing.T) {
	small := &batchScratch{keys: make([]uint64, 1<<10)}
	if small.retainedBytes() > maxRetainedScratchBytes {
		t.Fatalf("a routine scratch (%d bytes) must stay under the cap", small.retainedBytes())
	}
	huge := &batchScratch{flatOut: make([]bool, maxRetainedScratchBytes+1)}
	if huge.retainedBytes() <= maxRetainedScratchBytes {
		t.Fatalf("retainedBytes undercounts: %d", huge.retainedBytes())
	}
	// Drain the shared pool, put the oversized scratch, and check it does
	// not come back (a fresh zero-value scratch does instead).
	var drained []*batchScratch
	for i := 0; i < 64; i++ {
		drained = append(drained, getScratch())
	}
	putScratch(huge)
	got := getScratch()
	if got == huge {
		t.Fatal("oversized scratch was recycled through the pool")
	}
	putScratch(got)
	for _, sc := range drained {
		putScratch(sc)
	}
	bulk := &batchScratch{keys: make([]uint64, bulkScratchBytes/8+1)}
	for i := 0; i < maxBulkUses; i++ {
		if !bulk.recyclable() {
			t.Fatalf("bulk scratch refused at recycle %d, limit %d", i+1, maxBulkUses)
		}
	}
	if bulk.recyclable() {
		t.Fatalf("bulk scratch recycled past the limit %d", maxBulkUses)
	}
	if !small.recyclable() || small.bulkUses != 0 {
		t.Fatal("a routine scratch must always be recyclable, uncounted")
	}
}
