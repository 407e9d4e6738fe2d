package core

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/hashutil"
)

func roundTrip(t *testing.T, f *Filter) *Filter {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	g, err := UnmarshalFilter(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return g
}

func TestSerializeRoundTripBasic(t *testing.T) {
	f := NewBasic(1000, 12)
	rng := rand.New(rand.NewSource(50))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Insert(keys[i])
	}
	g := roundTrip(t, f)
	for _, k := range keys {
		if !g.MayContain(k) {
			t.Fatalf("deserialized filter lost key %d", k)
		}
	}
	// Identical probe behaviour on arbitrary queries, positive or not.
	for i := 0; i < 5000; i++ {
		y := rng.Uint64()
		if f.MayContain(y) != g.MayContain(y) {
			t.Fatalf("point probe diverges for %d", y)
		}
		lo := rng.Uint64()
		hi := lo + rng.Uint64()%(1<<30)
		if hi < lo {
			hi = ^uint64(0)
		}
		if f.MayContainRange(lo, hi) != g.MayContainRange(lo, hi) {
			t.Fatalf("range probe diverges for [%d,%d]", lo, hi)
		}
	}
}

func TestSerializeRoundTripTuned(t *testing.T) {
	f, _, err := NewTuned(TuneOptions{N: 5000, BitsPerKey: 16, MaxRange: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 5000; i++ {
		f.Insert(rng.Uint64())
	}
	g := roundTrip(t, f)
	if g.SizeBits() != f.SizeBits() {
		t.Errorf("size mismatch: %d vs %d", g.SizeBits(), f.SizeBits())
	}
	if !g.HasExact() {
		t.Error("exact layer lost")
	}
	gs, fs := g.Stats(), f.Stats()
	if gs.SetBits != fs.SetBits || gs.ExactSet != fs.ExactSet {
		t.Errorf("occupancy mismatch: %+v vs %+v", gs, fs)
	}
}

func TestSerializePermuted(t *testing.T) {
	cfg := BasicConfig(500, 12)
	cfg.PermuteWords = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		f.Insert(i * 7919)
	}
	g := roundTrip(t, f)
	for i := uint64(0); i < 500; i++ {
		if !g.MayContain(i * 7919) {
			t.Fatalf("permuted filter lost key %d", i*7919)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := NewBasic(100, 10)
	f.Insert(42)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"short":     func(b []byte) []byte { return b[:10] },
		"badmagic":  func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
		"bitflip":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x01; return c },
		"truncated": func(b []byte) []byte { return b[:len(b)-9] },
		"extended":  func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
	}
	for name, mutate := range cases {
		if _, err := UnmarshalFilter(mutate(data)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestUnmarshalRejectsBadVersion(t *testing.T) {
	f := NewBasic(100, 10)
	data, _ := f.MarshalBinary()
	data[4] = 99 // version byte
	// The version byte is dispatched on before any checksum is verified.
	if _, err := UnmarshalFilter(data); err == nil {
		t.Error("bad version accepted")
	}
}

// TestUnmarshalAllocatesNoMoreThanPayload forges a block whose checksum is
// valid but whose header claims a 2^35-bit segment it does not carry: it
// must be refused before the filter is allocated.
func TestUnmarshalAllocatesNoMoreThanPayload(t *testing.T) {
	f := NewBasic(100, 10)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	off := 4 + 4 + 3*f.k + 1 // segBits[0]
	binary.LittleEndian.PutUint64(blob[off:], 1<<35)
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(body):], uint64(crc32.Checksum(body, castagnoli)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = UnmarshalFilter(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("block claiming an absent 4 GiB segment accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the block allocated %d bytes", grew)
	}
}

// marshalV1 encodes f as a version-1 block: today's body under the FNV-1a
// trailer that version-1 writers produced.
func marshalV1(f *Filter) []byte {
	buf := f.appendBody()
	buf[4] = 1
	return binary.LittleEndian.AppendUint64(buf, hashutil.HashBytes(buf, 0))
}

// BenchmarkFilterBlockCodec measures the filter-block codec on one 16 MiB
// shard (2^27 bits of random words) for both checksum versions; MB/s is
// block bytes per second. Both versions are written by today's single-copy
// encoder, so marshal v1 against v2 isolates the checksum. Run with:
//
//	go test -run xxx -bench FilterBlockCodec -benchtime 20x ./internal/core
func BenchmarkFilterBlockCodec(b *testing.B) {
	f := NewBasic(1<<23, 16) // 2^27 bits = 16 MiB
	rng := rand.New(rand.NewSource(53))
	for i := range f.exact.words {
		f.exact.words[i] = rng.Uint64()
	}
	for s := range f.segs {
		for i := range f.segs[s].words {
			f.segs[s].words[i] = rng.Uint64()
		}
	}
	for _, c := range []struct {
		version string
		marshal func() []byte
	}{
		{"v1", func() []byte { return marshalV1(f) }},
		{"v2", func() []byte { blob, _ := f.MarshalBinary(); return blob }},
	} {
		blob := c.marshal()
		b.Run("marshal/"+c.version, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				c.marshal()
			}
		})
		b.Run("unmarshal/"+c.version, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalFilter(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
