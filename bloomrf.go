// Package bloomrf provides bloomRF, a unified approximate-membership
// filter supporting both point and range queries over 64-bit keys, as
// introduced in "bloomRF: On Performing Range-Queries in Bloom-Filters
// with Piecewise-Monotone Hash-Functions and Prefix Hashing" (EDBT 2023).
//
// A bloomRF filter behaves like a Bloom filter — online inserts, no false
// negatives, tunable false-positive rate — but additionally answers
// "are there any keys in [lo, hi]?" in O(k) time independent of the range
// width, using prefix hashing (range information encoded in the key's hash
// code via dyadic intervals) and piecewise-monotone hash functions (PMHF,
// which keep adjacent prefixes adjacent in the bit array so interval runs
// are tested with single word accesses).
//
// Quick start:
//
//	f := bloomrf.New(1_000_000, 16)           // expected keys, bits/key
//	f.Insert(42)
//	f.MayContain(42)                          // true
//	f.MayContainRange(40, 100)                // true
//	f.MayContainRange(1_000, 2_000)           // false (almost surely)
//
// Hot loops should use the batch variants. InsertBatch and MayContainBatch
// return identical answers to single-key loops but run layer-major,
// amortizing per-layer setup and per-key hashing overheads (roughly 2×
// point-probe throughput on large batches; see BenchmarkBatchPointLookup);
// MayContainRangeBatch is an equivalent-answer convenience for symmetric
// call sites, with no per-range speedup:
//
//	keys := []uint64{42, 4711, 1_000_000}
//	f.InsertBatch(keys)
//	out := make([]bool, len(keys))
//	f.MayContainBatch(keys, out)
//
// For workloads with large range queries, use NewTuned, which runs the
// paper's §7 tuning advisor (variable level distances, replicated hash
// functions, memory segments and an exact top layer):
//
//	f, err := bloomrf.NewTuned(bloomrf.Options{
//		ExpectedKeys: 50_000_000,
//		BitsPerKey:   16,
//		MaxRange:     1e10,
//	})
//
// Floats, signed integers and strings are supported through monotone
// encodings (EncodeFloat64, EncodeInt64, EncodeStringRange), and two-
// attribute conjunctive filtering through MultiAttr. Filters serialize to
// compact blocks (MarshalBinary/Unmarshal) for use as SSTable filter
// blocks; see internal/lsm for a complete LSM integration, and
// internal/server plus cmd/bloomrfd for serving sharded filters over HTTP
// with durable snapshot/restore.
//
// All Filter and MultiAttr methods are safe for concurrent use without
// external locking: bloomRF is an online, parallel structure (paper
// Experiment 4), and inserts and probes go through atomic bit operations.
// MarshalBinary concurrent with inserts is also safe and never loses an
// insert that completed before the call (the happens-before order of the
// atomic bit writes matches the serialization order), but an insert still
// in flight may be captured partially — some of its layers' bits in the
// block, others not. Such a torn insert never produces a false negative
// for completed inserts, yet the block is not a point-in-time image.
// Callers that need insert-atomic snapshots must make inserts and
// MarshalBinary mutually exclusive; internal/server does exactly this with
// a per-shard reader–writer lock (inserts share the read side, so they
// still run in parallel; snapshotting a shard takes the write side), which
// is how the bloomrfd persistence layer guarantees consistent on-disk
// snapshots under live write traffic.
package bloomrf

import (
	"repro/internal/core"
)

// Filter is a bloomRF point-range filter. The zero value is not usable;
// construct with New, NewTuned or NewWithConfig.
type Filter struct {
	inner *core.Filter
}

// Options configures NewTuned, mirroring the paper's tuning advisor
// inputs.
type Options struct {
	// ExpectedKeys is n, the anticipated number of inserted keys.
	ExpectedKeys uint64
	// BitsPerKey is the space budget (total memory = n · BitsPerKey bits).
	BitsPerKey float64
	// MaxRange is the largest query-range size the filter is optimized
	// for. 0 tunes for point queries; basic filters handle up to ~2^14
	// regardless.
	MaxRange float64
	// PointWeight is the C of the advisor's weighted norm
	// fpr² = fpr_range² + C²·fpr_point²; 0 means 1. Raise it to privilege
	// point-query accuracy.
	PointWeight float64
}

// New returns a basic bloomRF sized for n keys at bitsPerKey bits of
// memory per key. Basic bloomRF is tuning-free and suited to query ranges
// up to about 2^14 (paper §5); use NewTuned for larger ranges.
func New(n uint64, bitsPerKey float64) *Filter {
	return &Filter{inner: core.NewBasic(n, bitsPerKey)}
}

// NewTuned runs the §7 tuning advisor and returns the recommended filter
// along with its predicted false-positive rates.
func NewTuned(opt Options) (*Filter, Tuning, error) {
	f, rep, err := core.NewTuned(core.TuneOptions{
		N:           opt.ExpectedKeys,
		BitsPerKey:  opt.BitsPerKey,
		MaxRange:    opt.MaxRange,
		PointWeight: opt.PointWeight,
	})
	if err != nil {
		return nil, Tuning{}, err
	}
	return &Filter{inner: f}, Tuning{
		ExactLevel:    rep.ExactLevel,
		PredictedFPR:  rep.PredictedFPR,
		RangeFPR:      rep.PredictedFPRm,
		PointFPR:      rep.PredictedFPRp,
		LevelDistance: rep.Config.Deltas,
	}, nil
}

// NewWithConfig builds a filter from an explicit low-level layout; most
// callers want New or NewTuned. See core.Config for the knobs.
func NewWithConfig(cfg core.Config) (*Filter, error) {
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Filter{inner: f}, nil
}

// Tuning reports what the advisor chose.
type Tuning struct {
	// ExactLevel is the dyadic level stored as an exact bitmap.
	ExactLevel int
	// PredictedFPR is the weighted norm the advisor minimized.
	PredictedFPR float64
	// RangeFPR is the predicted maximum FPR over dyadic ranges ≤ MaxRange.
	RangeFPR float64
	// PointFPR is the predicted point-query FPR.
	PointFPR float64
	// LevelDistance is the chosen Δ vector (bottom-up).
	LevelDistance []int
}

// Insert adds a key. Safe for concurrent use.
func (f *Filter) Insert(x uint64) { f.inner.Insert(x) }

// MayContain reports whether x may have been inserted: false is
// definitive, true is correct with probability 1 − FPR.
func (f *Filter) MayContain(x uint64) bool { return f.inner.MayContain(x) }

// MayContainRange reports whether any key in [lo, hi] (inclusive, either
// order) may have been inserted. False is definitive.
func (f *Filter) MayContainRange(lo, hi uint64) bool { return f.inner.MayContainRange(lo, hi) }

// InsertFloat64 adds a float key through the order-preserving coding φ.
func (f *Filter) InsertFloat64(v float64) { f.inner.Insert(core.EncodeFloat64(v)) }

// MayContainFloat64 tests a float point.
func (f *Filter) MayContainFloat64(v float64) bool {
	return f.inner.MayContain(core.EncodeFloat64(v))
}

// MayContainFloat64Range tests a float range [lo, hi].
func (f *Filter) MayContainFloat64Range(lo, hi float64) bool {
	return f.inner.MayContainRange(core.EncodeFloat64(lo), core.EncodeFloat64(hi))
}

// InsertInt64 adds a signed integer through the order-preserving coding.
func (f *Filter) InsertInt64(v int64) { f.inner.Insert(core.EncodeInt64(v)) }

// MayContainInt64Range tests a signed range.
func (f *Filter) MayContainInt64Range(lo, hi int64) bool {
	return f.inner.MayContainRange(core.EncodeInt64(lo), core.EncodeInt64(hi))
}

// InsertString adds a string through the paper's §8 encoding: the first
// seven bytes order-exactly plus one hash byte of the remainder.
func (f *Filter) InsertString(s string) { f.inner.Insert(core.EncodeStringPoint(s)) }

// MayContainString tests a string point (prefix+hash granularity).
func (f *Filter) MayContainString(s string) bool {
	return f.inner.MayContain(core.EncodeStringPoint(s))
}

// MayContainStringRange tests a string range at 7-byte-prefix granularity.
func (f *Filter) MayContainStringRange(lo, hi string) bool {
	return f.inner.MayContainRange(core.EncodeStringRange(lo, hi))
}

// SizeBits returns the filter's memory footprint in bits.
func (f *Filter) SizeBits() uint64 { return f.inner.SizeBits() }

// K returns the number of probabilistic layers (hash functions).
func (f *Filter) K() int { return f.inner.K() }

// MarshalBinary serializes the filter to a compact block: a header, the
// raw bit words, and an 8-byte trailer holding a CRC-32C of everything
// before it (filter block version 2). The words are read straight into
// the block, with no intermediate copy of the filter.
func (f *Filter) MarshalBinary() ([]byte, error) { return f.inner.MarshalBinary() }

// Unmarshal reconstructs a filter serialized with MarshalBinary, by this
// or an earlier release: version-2 blocks are verified with CRC-32C and
// version-1 blocks (written before CRC-32C) with their FNV-1a checksum.
// A block that fails its checksum, or of an unknown version, is an error.
func Unmarshal(data []byte) (*Filter, error) {
	inner, err := core.UnmarshalFilter(data)
	if err != nil {
		return nil, err
	}
	return &Filter{inner: inner}, nil
}

// EncodeFloat64 exposes the monotone float coding φ of §8 for callers
// that manage raw uint64 keys themselves.
func EncodeFloat64(v float64) uint64 { return core.EncodeFloat64(v) }

// DecodeFloat64 inverts EncodeFloat64.
func DecodeFloat64(u uint64) float64 { return core.DecodeFloat64(u) }

// EncodeInt64 exposes the monotone signed-integer coding.
func EncodeInt64(v int64) uint64 { return core.EncodeInt64(v) }

// MultiAttr is the two-attribute conjunctive filter of §8: it answers
// predicates like A < 42 AND B = 4711 with one probe.
type MultiAttr struct {
	inner *core.MultiAttr
}

// MultiAttrOptions configures NewMultiAttr.
type MultiAttrOptions struct {
	// ExpectedKeys is the anticipated number of (A, B) tuples.
	ExpectedKeys uint64
	// BitsPerKey is the budget per tuple.
	BitsPerKey float64
	// MaxRange bounds range predicates (in reduced-precision units).
	MaxRange float64
	// BitsA and BitsB give the significant bits of each attribute;
	// values above 32 bits are monotonically reduced. 0 means 32.
	BitsA, BitsB int
}

// NewMultiAttr creates a two-attribute filter.
func NewMultiAttr(opt MultiAttrOptions) (*MultiAttr, error) {
	m, err := core.NewMultiAttr(core.MultiAttrOptions{
		N: opt.ExpectedKeys, BitsPerKey: opt.BitsPerKey, MaxRange: opt.MaxRange,
		BitsA: opt.BitsA, BitsB: opt.BitsB,
	})
	if err != nil {
		return nil, err
	}
	return &MultiAttr{inner: m}, nil
}

// Insert adds a tuple.
func (m *MultiAttr) Insert(a, b uint64) { m.inner.Insert(a, b) }

// MayContain tests A = a AND B = b.
func (m *MultiAttr) MayContain(a, b uint64) bool { return m.inner.MayContainPoint(a, b) }

// MayContainARange tests A ∈ [aLo, aHi] AND B = b.
func (m *MultiAttr) MayContainARange(aLo, aHi, b uint64) bool {
	return m.inner.MayContainARangeBEq(aLo, aHi, b)
}

// MayContainBRange tests A = a AND B ∈ [bLo, bHi].
func (m *MultiAttr) MayContainBRange(a, bLo, bHi uint64) bool {
	return m.inner.MayContainAEqBRange(a, bLo, bHi)
}

// SizeBits returns the footprint in bits.
func (m *MultiAttr) SizeBits() uint64 { return m.inner.SizeBits() }
