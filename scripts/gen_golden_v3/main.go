// Command gen_golden_v3 regenerates the checked-in golden v3 snapshot
// fixture at internal/server/testdata/golden-v3-store. The fixture is a
// WAL-era (manifest format_version 3) snapshot — options with a
// partitioning record but no backend field (backend selection arrived in
// v4), plus a wal_pos — used by TestGoldenV3SnapshotRestore to pin that
// snapshots written before backend selection existed stay restorable and
// come back as bloomRF filters.
//
// The checked-in shard blobs are version-1 filter blocks (FNV-1a trailer).
// Do not regenerate the fixture: the blobs come from today's encoder, so a
// re-run would replace them with version-2 blocks and drop the fixture's
// coverage of version-1 blocks. The manifest bytes are written from
// literal v3 structs with a fixed timestamp.
//
//	go run ./scripts/gen_golden_v3
package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"repro/internal/server"
)

// v3 manifest schema, frozen as it was written before the backend field
// existed.
type v3Options struct {
	ExpectedKeys uint64  `json:"expected_keys"`
	BitsPerKey   float64 `json:"bits_per_key"`
	MaxRange     float64 `json:"max_range"`
	Shards       int     `json:"shards"`
	Partitioning string  `json:"partitioning"`
}

type v3ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	Keys   uint64 `json:"keys,omitempty"`
}

type v3Manifest struct {
	FormatVersion int            `json:"format_version"`
	Name          string         `json:"name"`
	Seq           uint64         `json:"seq"`
	CreatedUnix   int64          `json:"created_unix_nano"`
	Options       v3Options      `json:"options"`
	InsertedKeys  uint64         `json:"inserted_keys"`
	Shards        []v3ShardEntry `json:"shards"`
	WALPos        uint64         `json:"wal_pos,omitempty"`
}

// fixtureKeys is the deterministic insert set shared by every golden
// fixture; the restore tests probe the same sequence.
func fixtureKeys() []uint64 {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 // spread across the keyspace
	}
	return keys
}

func main() {
	opt := server.FilterOptions{
		ExpectedKeys: 4096,
		BitsPerKey:   16,
		Shards:       4,
		Partitioning: server.PartitionRange,
		// Backend left empty: NewSharded defaults it to bloomrf, and the
		// frozen v3 manifest below never records it.
	}
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata", "golden-v3-store", "sessions", "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	man := v3Manifest{
		FormatVersion: 3,
		Name:          "sessions",
		Seq:           1,
		CreatedUnix:   1753600000000000000, // fixed so regeneration is byte-stable
		Options: v3Options{
			ExpectedKeys: opt.ExpectedKeys,
			BitsPerKey:   opt.BitsPerKey,
			Shards:       opt.Shards,
			Partitioning: string(opt.Partitioning),
		},
		InsertedKeys: uint64(len(keys)),
		WALPos:       8192, // a v3 snapshot taken with a live WAL records its position
	}
	st := f.Stats()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i := 0; i < f.NumShards(); i++ {
		blob, err := f.MarshalShard(i)
		if err != nil {
			log.Fatal(err)
		}
		file := filepath.Join(snapDir, fmt.Sprintf("shard-%04d.bin", i))
		if err := os.WriteFile(file, blob, 0o644); err != nil {
			log.Fatal(err)
		}
		man.Shards = append(man.Shards, v3ShardEntry{
			File:   filepath.Base(file),
			Bytes:  int64(len(blob)),
			CRC32C: crc32.Checksum(blob, castagnoli),
			Keys:   st.ShardKeys[i],
		})
	}
	body, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "manifest.json"), body, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote v3 fixture under %s", snapDir)
}
