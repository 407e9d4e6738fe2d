// Command gen_golden_v1 regenerates the checked-in golden v1 snapshot
// fixture at internal/server/testdata/golden-v1-store. The fixture is a
// hash-era (manifest format_version 1) snapshot — options without a
// partitioning record, shard entries without per-shard key counts — used by
// TestGoldenV1SnapshotRestore to pin that snapshots written before the
// partitioner abstraction stay restorable.
//
// The checked-in shard blobs are version-1 filter blocks (FNV-1a trailer).
// Do not regenerate the fixture: the blobs come from today's encoder, so a
// re-run would replace them with version-2 blocks and drop the fixture's
// coverage of version-1 blocks. The manifest bytes are written from
// literal v1 structs with a fixed timestamp.
//
//	go run ./scripts/gen_golden_v1
package main

import (
	"encoding/json"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"repro/internal/server"
)

// v1 manifest schema, frozen as it was written before the partitioning
// record and per-shard key counts existed.
type v1Options struct {
	ExpectedKeys uint64  `json:"expected_keys"`
	BitsPerKey   float64 `json:"bits_per_key"`
	MaxRange     float64 `json:"max_range"`
	Shards       int     `json:"shards"`
}

type v1ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

type v1Manifest struct {
	FormatVersion int            `json:"format_version"`
	Name          string         `json:"name"`
	Seq           uint64         `json:"seq"`
	CreatedUnix   int64          `json:"created_unix_nano"`
	Options       v1Options      `json:"options"`
	InsertedKeys  uint64         `json:"inserted_keys"`
	Shards        []v1ShardEntry `json:"shards"`
}

// fixtureKeys is the deterministic insert set; the restore test probes the
// same sequence.
func fixtureKeys() []uint64 {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 // spread across the keyspace
	}
	return keys
}

func main() {
	opt := server.FilterOptions{ExpectedKeys: 4096, BitsPerKey: 16, Shards: 2}
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata", "golden-v1-store", "users", "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	man := v1Manifest{
		FormatVersion: 1,
		Name:          "users",
		Seq:           1,
		CreatedUnix:   1753600000000000000, // fixed so regeneration is byte-stable
		Options: v1Options{
			ExpectedKeys: opt.ExpectedKeys,
			BitsPerKey:   opt.BitsPerKey,
			Shards:       opt.Shards,
		},
		InsertedKeys: uint64(len(keys)),
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i := 0; i < f.NumShards(); i++ {
		blob, err := f.MarshalShard(i)
		if err != nil {
			log.Fatal(err)
		}
		file := filepath.Join(snapDir, "shard-000"+string(rune('0'+i))+".bin")
		if err := os.WriteFile(file, blob, 0o644); err != nil {
			log.Fatal(err)
		}
		man.Shards = append(man.Shards, v1ShardEntry{
			File:   filepath.Base(file),
			Bytes:  int64(len(blob)),
			CRC32C: crc32.Checksum(blob, castagnoli),
		})
	}
	body, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "manifest.json"), body, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote v1 fixture under %s", snapDir)
}
