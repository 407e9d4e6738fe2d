package core

import (
	"bytes"
	"testing"
)

// fuzzSeedBlobs returns valid filter blocks across the layouts the format
// can express, as fuzz seeds: basic, tuned (exact layer + segments +
// replicas), and permuted.
func fuzzSeedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	add := func(f *Filter, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		for i := uint64(0); i < 200; i++ {
			f.Insert(i * 0x9e3779b97f4a7c15)
		}
		b, err := f.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	add(NewBasic(200, 12), nil)
	tf, _, err := NewTuned(TuneOptions{N: 200, BitsPerKey: 18, MaxRange: 1 << 24})
	add(tf, err)
	cfg := BasicConfig(200, 12)
	cfg.PermuteWords = true
	pf, err := New(cfg)
	add(pf, err)
	return blobs
}

// FuzzMarshalRoundTrip feeds arbitrary bytes to UnmarshalFilter. The
// contract under fuzzing: corrupt input returns an error — never a panic,
// never an out-of-range access — and input that does parse yields a usable
// filter whose re-marshaled block round-trips byte-identically. The
// trailing checksum makes accidental acceptance of a mutated blob
// effectively impossible, which TestUnmarshalRejectsCorruption pins
// deterministically byte by byte.
func FuzzMarshalRoundTrip(f *testing.F) {
	for _, blob := range fuzzSeedBlobs(f) {
		f.Add(blob)
	}
	f.Add(readGolden(f, goldenV1Path))
	f.Add(withHighTrailer(fuzzSeedBlobs(f)[0], 0x01))
	f.Add([]byte{})
	f.Add([]byte("bRF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalFilter(data)
		if err != nil {
			return // rejected; the implicit assertion is "no panic"
		}
		// Accepted blobs must describe a fully functional filter.
		g.Insert(42)
		if !g.MayContain(42) {
			t.Fatal("parsed filter drops inserts")
		}
		_ = g.MayContainRange(0, 1<<20)
		blob2, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		h, err := UnmarshalFilter(blob2)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		blob3, err := h.MarshalBinary()
		if err != nil {
			t.Fatalf("third marshal failed: %v", err)
		}
		if !bytes.Equal(blob2, blob3) {
			t.Fatal("marshal not a fixed point after one round trip")
		}
	})
}

// withHighTrailer returns a copy of a version-2 blob whose trailer has b
// in its most significant byte, the half the CRC-32C does not occupy.
func withHighTrailer(blob []byte, b byte) []byte {
	c := append([]byte(nil), blob...)
	c[len(c)-1] = b
	return c
}

// TestUnmarshalRejectsEveryByteFlip corrupts each byte of a valid blob in
// turn; the trailing checksum must catch every one (a "corrupt blobs must
// return errors, never silently succeed" guarantee the fuzz target cannot
// assert because it lacks ground truth). It covers today's version-2
// blobs, whose CRC-32C detects every burst of up to 32 bits, and the
// version-1 golden blob, which is still verified with FNV-1a. Every
// nonzero value in the high half of a version-2 trailer is refused too.
func TestUnmarshalRejectsEveryByteFlip(t *testing.T) {
	blobs := append(fuzzSeedBlobs(t), readGolden(t, goldenV1Path))
	for _, blob := range blobs {
		if _, err := UnmarshalFilter(blob); err != nil {
			t.Fatalf("intact version-%d blob rejected: %v", blob[4], err)
		}
		for i := range blob {
			c := append([]byte(nil), blob...)
			c[i] ^= 0x5a
			if _, err := UnmarshalFilter(c); err == nil {
				t.Fatalf("version %d: flip of byte %d/%d not detected", blob[4], i, len(blob))
			}
		}
	}
	for _, blob := range fuzzSeedBlobs(t) {
		for i := len(blob) - 4; i < len(blob); i++ {
			for m := 1; m < 256; m++ {
				c := append([]byte(nil), blob...)
				c[i] ^= byte(m)
				if _, err := UnmarshalFilter(c); err == nil {
					t.Fatalf("high trailer byte %d ^ %#x not detected", i, m)
				}
			}
		}
	}
}
