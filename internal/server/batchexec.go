package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pooled batch execution. Every batch operation on a ShardedFilter needs
// scratch space — per-key shard ids, per-shard sub-batches, per-shard
// verdict buffers — and before this file existed each request allocated all
// of it fresh (a 2-D slice-of-slices per call, plus one verdict slice per
// shard). At the request rates the binary wire protocol targets, that
// garbage dominated the handlers' profiles. Now a request checks one
// batchScratch out of a sync.Pool, every buffer inside it is grown once and
// reused for the rest of the process's life, and the grouped sub-batches
// live in flat arrays partitioned by counting-sort offsets instead of
// per-shard allocations — so a warm batch request performs zero heap
// allocations end to end (binary codec included; see binary.go).
//
// Every operation loads the copy-on-write shard table (shard.go) exactly
// once and threads that *shardTable through grouping and execution, so one
// batch always sees a single consistent topology even while a span split
// publishes a new one. Queries need nothing more — a shard retired by a
// split still answers correctly for every key it ever owned. Inserts
// validate under the shard lock (insertShard) and re-route sub-batches the
// swap invalidated through a fresh InsertBatch call.
//
// Fan-out policy: a batch below fanOutMinKeys/fanOutMinRanges runs entirely
// on the caller's goroutine, as before. Above it, only shards whose
// sub-batch clears spawnThreshold get their own goroutine; straggler
// sub-batches run inline on the caller's goroutine while the spawned
// shards work — a 16-key straggler sub-batch costs a function call, not a
// goroutine hop, and a uniformly-spread batch keeps one goroutine per
// shard exactly as before.

// Per-shard inline caps: in fan-out mode, a sub-batch below the spawn
// threshold is executed on the caller's goroutine instead of its own.
// Goroutine spawn + schedule + join costs ~1–2 µs; sub-batches below these
// absolute sizes finish faster than that (ranges amortize the hop sooner
// because each range is a full dyadic decomposition). The effective
// threshold also scales with the batch (spawnThreshold), so a mid-size
// batch spread thin across many shards still parallelizes.
const (
	inlineMinKeys   = 256
	inlineMinRanges = 4
)

// spawnThreshold returns the minimum sub-batch size that earns its own
// goroutine when total items fan out across n shards: half the mean
// sub-batch size, capped at the absolute inline cap. Uniformly-loaded
// shards (sub ≈ total/n) always clear it — a batch past the fan-out
// cutoff keeps its parallelism however many shards split it — while
// straggler sub-batches far below the mean run inline on the caller's
// goroutine instead of paying a spawn that outweighs their work.
func spawnThreshold(total, n, inlineCap int) int {
	thr := inlineCap
	if t := total / (2 * n); t < thr {
		thr = t
	}
	if thr < 1 {
		thr = 1
	}
	return thr
}

// batchScratch carries every buffer one batch request needs. The fields
// group into decode buffers (filled by the binary codec or the JSON
// handlers), grouping scratch (counting-sort layout of the batch by owning
// shard), and the flat sub-batch arrays the per-shard executors read.
// A scratch is checked out per request (getScratch/putScratch) and never
// shared; the flat arrays are partitioned by offs so concurrent per-shard
// goroutines touch disjoint segments.
type batchScratch struct {
	// Request/response byte buffers for the binary codec (binary.go).
	body []byte
	resp []byte

	// Decoded request payloads.
	keys   []uint64
	ranges [][2]uint64
	out    []bool

	// Grouping scratch: ids[j] is the shard owning item j; counts, offs and
	// cursors implement the counting sort. offs has n+1 entries so shard
	// sh's segment of a flat array is [offs[sh], offs[sh+1]).
	ids     []uint8
	counts  []int
	offs    []int
	cursors []int

	// Flat grouped arrays, partitioned by offs: the keys (or ranges) routed
	// to each shard, the original batch position of each, and the per-shard
	// verdicts before they are scattered back.
	flatKeys   []uint64
	flatRanges [][2]uint64
	flatPos    []int
	flatOut    []bool

	// tr is the request's phase trace (internal/obs). Handlers arm it with
	// Start; the executors below mark shard-dispatch and probe boundaries
	// on it. A plain value with no pointers: embedding it here keeps the
	// traced hot path allocation-free, and the zero (disarmed) state makes
	// every mark a no-op for callers that use the public batch APIs
	// without tracing.
	tr obs.Trace

	// bulkUses counts the recycles of this scratch while it held more than
	// bulkScratchBytes (putScratch).
	bulkUses int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// Retention policy. A scratch's buffers grow to the largest request it
// ever served, and a pooled scratch stays reachable for as long as traffic
// keeps recycling it (golang.org/issue/23199), so putScratch enforces two
// limits:
//
//   - A scratch above maxRetainedScratchBytes is never pooled: one
//     worst-case request (a MaxBatch hash-mode range batch sizes flatOut
//     at shards × ranges) would otherwise pin hundreds of MiB per P.
//     Monsters are rebuilt on their next appearance, which is what the old
//     per-request make() did on every one.
//   - A scratch above bulkScratchBytes (a batch of ~16k keys or more) is
//     recycled at most maxBulkUses times. A bulk load of 64k-key batches
//     regrows its buffers once per 64 batches, while ordinary traffic
//     after it stops carrying them within 64 requests. Without this, once
//     the JSON codec stopped producing garbage and collections came
//     seconds apart, the scratches of a 64k-key preload stayed in the pool
//     for the life of the process: 3 MiB more live heap and, at GOGC=100,
//     6 MiB more resident set on a 2 MiB filter.
const (
	maxRetainedScratchBytes = 8 << 20
	bulkScratchBytes        = 1 << 20
	maxBulkUses             = 64
)

// retainedBytes approximates the scratch's total buffer capacity.
func (sc *batchScratch) retainedBytes() int {
	return cap(sc.body) + cap(sc.resp) +
		8*cap(sc.keys) + 16*cap(sc.ranges) + cap(sc.out) +
		cap(sc.ids) + 8*(cap(sc.counts)+cap(sc.offs)+cap(sc.cursors)) +
		8*cap(sc.flatKeys) + 16*cap(sc.flatRanges) + 8*cap(sc.flatPos) + cap(sc.flatOut)
}

// putScratch recycles sc unless the retention policy above says to leave
// it for the garbage collector. The trace is disarmed either way: a
// handler that errored out mid-request leaves its trace armed, and the
// next checkout must not accumulate into that stale state.
func putScratch(sc *batchScratch) {
	sc.tr.Disarm()
	if sc.recyclable() {
		batchScratchPool.Put(sc)
	}
}

// recyclable applies the retention policy, counting a bulk-sized recycle.
func (sc *batchScratch) recyclable() bool {
	switch n := sc.retainedBytes(); {
	case n > maxRetainedScratchBytes:
		return false
	case n > bulkScratchBytes:
		sc.bulkUses++
		return sc.bulkUses <= maxBulkUses
	}
	return true
}

// grown returns s resized to n, reallocating only when capacity is short.
// Contents are unspecified — every user overwrites its segment.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// groupKeys partitions keys by owning shard under tab's routing into sc's
// flat arrays using a counting sort: one routing pass filling ids and
// counts, an offset scan, and a scatter pass. When track is true, flatPos
// records each key's original batch position (disjoint segments per shard,
// so concurrent verdict scatters are race-free).
func groupKeys(tab *shardTable, keys []uint64, track bool, sc *batchScratch) {
	n := len(tab.shards)
	sc.ids = grown(sc.ids, len(keys))
	sc.counts = grown(sc.counts, n)
	sc.offs = grown(sc.offs, n+1)
	sc.cursors = grown(sc.cursors, n)
	for sh := range sc.counts {
		sc.counts[sh] = 0
	}
	for j, x := range keys {
		sh := tab.part.shardOf(x)
		sc.ids[j] = uint8(sh)
		sc.counts[sh]++
	}
	off := 0
	for sh := 0; sh < n; sh++ {
		sc.offs[sh] = off
		sc.cursors[sh] = off
		off += sc.counts[sh]
	}
	sc.offs[n] = off
	sc.flatKeys = grown(sc.flatKeys, len(keys))
	if track {
		sc.flatPos = grown(sc.flatPos, len(keys))
	}
	for j, x := range keys {
		sh := sc.ids[j]
		c := sc.cursors[sh]
		sc.flatKeys[c] = x
		if track {
			sc.flatPos[c] = j
		}
		sc.cursors[sh] = c + 1
	}
}

// insertBatchWith is InsertBatch against caller-provided scratch. A
// sub-batch whose shard a concurrent split retired between the table load
// and the shard lock (insertShard returns false) re-routes through a fresh
// InsertBatch call — new table, new scratch — so every key lands exactly
// once, in the shard that owns it when the insert applies.
func (s *ShardedFilter) insertBatchWith(keys []uint64, sc *batchScratch) {
	if len(keys) == 0 {
		return
	}
	tab := s.tab.Load()
	n := len(tab.shards)
	if n == 1 {
		sc.tr.Enter(obs.PhaseProbe)
		if !s.insertShard(tab, 0, keys) {
			s.InsertBatch(keys)
		}
		return
	}
	sc.tr.Enter(obs.PhaseShardDispatch)
	groupKeys(tab, keys, false, sc)
	sc.tr.Enter(obs.PhaseProbe)
	if len(keys) >= fanOutMinKeys {
		thr := spawnThreshold(len(keys), n, inlineMinKeys)
		var wg sync.WaitGroup
		for sh := 0; sh < n; sh++ {
			sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]
			if len(sub) >= thr {
				wg.Add(1)
				go func(sh int, sub []uint64) {
					defer wg.Done()
					if !s.insertShard(tab, sh, sub) {
						s.InsertBatch(sub)
					}
				}(sh, sub)
			}
		}
		// Run the straggler sub-batches inline while the spawned shards work.
		for sh := 0; sh < n; sh++ {
			sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]
			if len(sub) > 0 && len(sub) < thr {
				if !s.insertShard(tab, sh, sub) {
					s.InsertBatch(sub)
				}
			}
		}
		wg.Wait()
		return
	}
	for sh := 0; sh < n; sh++ {
		if sub := sc.flatKeys[sc.offs[sh]:sc.offs[sh+1]]; len(sub) > 0 {
			if !s.insertShard(tab, sh, sub) {
				s.InsertBatch(sub)
			}
		}
	}
}

// InsertBatch adds every key, fanning shard-local sub-batches into the
// filters' layer-major batch insert — inline for small (sub-)batches, one
// goroutine per shard once a shard's slice is large enough to amortize the
// spawn. A steady-state call performs no heap allocations below the
// fan-out threshold.
func (s *ShardedFilter) InsertBatch(keys []uint64) {
	sc := getScratch()
	s.insertBatchWith(keys, sc)
	putScratch(sc)
}

// queryShardInto probes one shard's sub-batch, writes the shard-local
// verdicts into sout (same length as sub), scatters them to their original
// batch positions in out, and returns the shard's positive count.
func queryShardInto(ss *shardState, sub []uint64, pos []int, sout []bool, out []bool) uint64 {
	ss.pointProbes.Add(uint64(len(sub)))
	ss.f.MayContainBatch(sub, sout)
	var hits uint64
	for i, j := range pos {
		out[j] = sout[i]
		if sout[i] {
			hits++
		}
	}
	return hits
}

// mayContainBatchWith is MayContainBatch against caller-provided scratch.
func (s *ShardedFilter) mayContainBatchWith(keys []uint64, out []bool, sc *batchScratch) {
	if len(out) != len(keys) {
		panic("server: MayContainBatch len(out) != len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	s.pointQueries.Add(uint64(len(keys)))
	tab := s.tab.Load()
	n := len(tab.shards)
	if n == 1 {
		sc.tr.Enter(obs.PhaseProbe)
		ss := tab.shards[0]
		ss.pointProbes.Add(uint64(len(keys)))
		ss.f.MayContainBatch(keys, out)
		var hits uint64
		for _, ok := range out {
			if ok {
				hits++
			}
		}
		s.pointPositives.Add(hits)
		return
	}
	sc.tr.Enter(obs.PhaseShardDispatch)
	groupKeys(tab, keys, true, sc)
	sc.flatOut = grown(sc.flatOut, len(keys))
	sc.tr.Enter(obs.PhaseProbe)
	if len(keys) >= fanOutMinKeys {
		thr := spawnThreshold(len(keys), n, inlineMinKeys)
		var wg sync.WaitGroup
		var hits atomic.Uint64
		for sh := 0; sh < n; sh++ {
			lo, hi := sc.offs[sh], sc.offs[sh+1]
			if hi-lo >= thr {
				wg.Add(1)
				go func(ss *shardState, lo, hi int) {
					defer wg.Done()
					hits.Add(queryShardInto(ss, sc.flatKeys[lo:hi], sc.flatPos[lo:hi], sc.flatOut[lo:hi], out))
				}(tab.shards[sh], lo, hi)
			}
		}
		for sh := 0; sh < n; sh++ {
			lo, hi := sc.offs[sh], sc.offs[sh+1]
			if hi > lo && hi-lo < thr {
				hits.Add(queryShardInto(tab.shards[sh], sc.flatKeys[lo:hi], sc.flatPos[lo:hi], sc.flatOut[lo:hi], out))
			}
		}
		wg.Wait()
		s.pointPositives.Add(hits.Load())
		return
	}
	var hits uint64
	for sh := 0; sh < n; sh++ {
		lo, hi := sc.offs[sh], sc.offs[sh+1]
		if hi > lo {
			hits += queryShardInto(tab.shards[sh], sc.flatKeys[lo:hi], sc.flatPos[lo:hi], sc.flatOut[lo:hi], out)
		}
	}
	s.pointPositives.Add(hits)
}

// MayContainBatch tests every key and stores the verdicts in out, which
// must have the same length as keys (it panics otherwise). Large per-shard
// sub-batches probe in parallel; a steady-state call below the fan-out
// threshold performs no heap allocations.
func (s *ShardedFilter) MayContainBatch(keys []uint64, out []bool) {
	sc := getScratch()
	s.mayContainBatchWith(keys, out, sc)
	putScratch(sc)
}

// groupRanges partitions a range batch by owning shard into sc's flat
// arrays under range partitioning: each range lands in the segment of every
// shard whose span it intersects (rangeShards — usually exactly one), with
// original batch positions tracked so per-shard verdicts can be
// OR-scattered back. Unlike keys, one range can appear in several shards'
// segments, so the flat arrays are sized by a counting pass first.
func groupRanges(tab *shardTable, ranges [][2]uint64, sc *batchScratch) {
	n := len(tab.shards)
	sc.counts = grown(sc.counts, n)
	sc.offs = grown(sc.offs, n+1)
	sc.cursors = grown(sc.cursors, n)
	for sh := range sc.counts {
		sc.counts[sh] = 0
	}
	for _, r := range ranges {
		first, last := tab.part.rangeShards(r[0], r[1])
		for sh := first; sh <= last; sh++ {
			sc.counts[sh]++
		}
	}
	off := 0
	for sh := 0; sh < n; sh++ {
		sc.offs[sh] = off
		sc.cursors[sh] = off
		off += sc.counts[sh]
	}
	sc.offs[n] = off
	sc.flatRanges = grown(sc.flatRanges, off)
	sc.flatPos = grown(sc.flatPos, off)
	for j, r := range ranges {
		first, last := tab.part.rangeShards(r[0], r[1])
		for sh := first; sh <= last; sh++ {
			c := sc.cursors[sh]
			sc.flatRanges[c] = r
			sc.flatPos[c] = j
			sc.cursors[sh] = c + 1
		}
	}
}

// mayContainRangeBatchWith is MayContainRangeBatch against caller-provided
// scratch.
func (s *ShardedFilter) mayContainRangeBatchWith(ranges [][2]uint64, out []bool, sc *batchScratch) {
	if len(out) != len(ranges) {
		panic("server: MayContainRangeBatch len(out) != len(ranges)")
	}
	if len(ranges) == 0 {
		return
	}
	s.rangeQueries.Add(uint64(len(ranges)))
	defer func() {
		var hits uint64
		for _, ok := range out {
			if ok {
				hits++
			}
		}
		s.rangePositives.Add(hits)
	}()
	tab := s.tab.Load()
	n := len(tab.shards)
	if n == 1 {
		sc.tr.Enter(obs.PhaseProbe)
		ss := tab.shards[0]
		ss.rangeProbes.Add(uint64(len(ranges)))
		ss.f.MayContainRangeBatch(ranges, out)
		return
	}
	if len(ranges) < fanOutMinRanges {
		sc.tr.Enter(obs.PhaseProbe)
		for j, r := range ranges {
			out[j] = s.rangeOne(tab, r[0], r[1])
		}
		return
	}
	if tab.part.mode() == PartitionRange {
		s.rangeBatchPartitioned(tab, ranges, out, sc)
		return
	}
	// Hash mode: all shards see all ranges; transpose the loops so one
	// goroutine per shard answers the whole batch against its shard, then
	// OR the per-shard verdict vectors. The vectors live in one flat
	// scratch array of n·len(ranges) bools, partitioned per shard.
	sc.tr.Enter(obs.PhaseProbe)
	sc.flatOut = grown(sc.flatOut, n*len(ranges))
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		ss := tab.shards[sh]
		ss.rangeProbes.Add(uint64(len(ranges)))
		sout := sc.flatOut[sh*len(ranges) : (sh+1)*len(ranges)]
		wg.Add(1)
		go func(ss *shardState, sout []bool) {
			defer wg.Done()
			ss.f.MayContainRangeBatch(ranges, sout)
		}(ss, sout)
	}
	wg.Wait()
	for j := range out {
		out[j] = false
		for sh := 0; sh < n; sh++ {
			if sc.flatOut[sh*len(ranges)+j] {
				out[j] = true
				break
			}
		}
	}
}

// MayContainRangeBatch tests every [lo, hi] pair and stores the verdicts in
// out, which must have the same length as ranges (it panics otherwise).
//
// Under hash partitioning every range consults every shard, so large
// batches flip the loop order: one goroutine per shard answers the whole
// batch against its shard, and the per-shard verdict vectors are ORed —
// same answers, 1/N wall clock. Under range partitioning the batch is
// instead grouped per owning shard (each range routes to the shards whose
// span it intersects, typically one), so the total probe work is near 1/N
// of the hash mode's before any parallelism. Small batches run inline with
// no heap allocations.
func (s *ShardedFilter) MayContainRangeBatch(ranges [][2]uint64, out []bool) {
	sc := getScratch()
	s.mayContainRangeBatchWith(ranges, out, sc)
	putScratch(sc)
}

// rangeBatchPartitioned is the large-batch range-mode path: group ranges
// per owning shard, answer big sub-batches on their own goroutines (small
// ones inline), and OR-scatter the verdicts back (serially — a
// span-straddling range may have verdicts from two shards).
func (s *ShardedFilter) rangeBatchPartitioned(tab *shardTable, ranges [][2]uint64, out []bool, sc *batchScratch) {
	sc.tr.Enter(obs.PhaseShardDispatch)
	groupRanges(tab, ranges, sc)
	for j := range out {
		out[j] = false
	}
	n := len(tab.shards)
	total := sc.offs[n]
	sc.flatOut = grown(sc.flatOut, total)
	sc.tr.Enter(obs.PhaseProbe)
	thr := spawnThreshold(total, n, inlineMinRanges)
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		lo, hi := sc.offs[sh], sc.offs[sh+1]
		if hi == lo {
			continue
		}
		ss := tab.shards[sh]
		ss.rangeProbes.Add(uint64(hi - lo))
		if hi-lo >= thr {
			wg.Add(1)
			go func(ss *shardState, lo, hi int) {
				defer wg.Done()
				ss.f.MayContainRangeBatch(sc.flatRanges[lo:hi], sc.flatOut[lo:hi])
			}(ss, lo, hi)
		}
	}
	for sh := 0; sh < n; sh++ {
		lo, hi := sc.offs[sh], sc.offs[sh+1]
		if hi > lo && hi-lo < thr {
			tab.shards[sh].f.MayContainRangeBatch(sc.flatRanges[lo:hi], sc.flatOut[lo:hi])
		}
	}
	wg.Wait()
	for c, j := range sc.flatPos[:total] {
		if sc.flatOut[c] {
			out[j] = true
		}
	}
}
