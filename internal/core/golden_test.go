package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden blobs pin the on-wire filter-block format across processes
// and releases. Each was produced by goldenFilter and is checked in:
// testdata/golden-basic-v1.bin by a version-1 (FNV-1a trailer) encoder,
// testdata/golden-basic-v2.bin by today's version-2 (CRC-32C trailer)
// encoder. If the format ever changes, this test fails; the fix is a new
// format version plus a new golden file, never a silent rewrite —
// deserialized SSTable filter blocks and bloomrfd snapshots in the field
// must stay readable, so every older golden blob keeps being decoded.
//
// Regenerate the current version's blob (only alongside a deliberate
// version bump) with:
//
//	go test ./internal/core -run TestGoldenBlob -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the current version's golden blob")

const (
	goldenPath   = "testdata/golden-basic-v2.bin" // today's encoder output
	goldenV1Path = "testdata/golden-basic-v1.bin" // read-only past version
)

// goldenFilter deterministically builds the filter the golden blob encodes:
// basic config, 512 keys on a multiplicative-hash progression, plus word
// permutation off so the blob exercises the default layout.
func goldenFilter() *Filter {
	f := NewBasic(512, 16)
	for i := uint64(0); i < 512; i++ {
		f.Insert(i * 0x9e3779b97f4a7c15)
	}
	return f
}

func readGolden(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("reading golden blob (generate with -update-golden): %v", err)
	}
	return b
}

func TestGoldenBlob(t *testing.T) {
	f := goldenFilter()
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(blob))
	}
	golden := readGolden(t, goldenPath)

	// Format stability: today's encoder reproduces the checked-in bytes.
	if !bytes.Equal(blob, golden) {
		t.Fatalf("MarshalBinary output diverged from golden blob (%d vs %d bytes): "+
			"the serialization format changed; bump serVersion and add a new golden file",
			len(blob), len(golden))
	}

	// The versions differ only in the version byte and the trailer.
	v1 := readGolden(t, goldenV1Path)
	if v1[4] != 1 || golden[4] != serVersion || len(v1) != len(golden) ||
		!bytes.Equal(v1[5:len(v1)-8], golden[5:len(golden)-8]) {
		t.Fatal("v1 and v2 golden blobs differ beyond the version byte and trailer")
	}

	// Decode stability: the checked-in bytes of every version restore a
	// filter that answers exactly like the freshly built one.
	for _, path := range []string{goldenV1Path, goldenPath} {
		g, err := UnmarshalFilter(readGolden(t, path))
		if err != nil {
			t.Fatalf("unmarshal %s: %v", path, err)
		}
		for i := uint64(0); i < 512; i++ {
			if !g.MayContain(i * 0x9e3779b97f4a7c15) {
				t.Fatalf("%s: golden filter lost key %d", path, i)
			}
		}
		for i := uint64(0); i < 4096; i++ {
			y := i * 0x2545f4914f6cdd1d
			if f.MayContain(y) != g.MayContain(y) {
				t.Fatalf("%s: golden filter diverges on point %d", path, y)
			}
			lo := y
			hi := lo + (i%64)*1024
			if hi < lo {
				hi = ^uint64(0)
			}
			if f.MayContainRange(lo, hi) != g.MayContainRange(lo, hi) {
				t.Fatalf("%s: golden filter diverges on range [%d,%d]", path, lo, hi)
			}
		}
	}
}
