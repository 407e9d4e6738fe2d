// Command gen_golden_v2 regenerates the checked-in golden v2 snapshot
// fixture at internal/server/testdata/golden-v2-store. The fixture is a
// range-partitioning-era (manifest format_version 2) snapshot — options with
// a partitioning record and shard entries with per-shard key counts, but no
// WAL position — used by TestGoldenV2SnapshotRestore to pin that snapshots
// written before the write-ahead log existed stay restorable.
//
// The checked-in shard blobs are version-1 filter blocks (FNV-1a trailer).
// Do not regenerate the fixture: the blobs come from today's encoder, so a
// re-run would replace them with version-2 blocks and drop the fixture's
// coverage of version-1 blocks. The manifest bytes are written from
// literal v2 structs with a fixed timestamp.
//
//	go run ./scripts/gen_golden_v2
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

// v2 manifest schema, frozen as it was written before the WAL position
// record existed.
type v2Options struct {
	ExpectedKeys uint64  `json:"expected_keys"`
	BitsPerKey   float64 `json:"bits_per_key"`
	MaxRange     float64 `json:"max_range"`
	Shards       int     `json:"shards"`
	Partitioning string  `json:"partitioning"`
}

type v2ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	Keys   uint64 `json:"keys,omitempty"`
}

type v2Manifest struct {
	FormatVersion int            `json:"format_version"`
	Name          string         `json:"name"`
	Seq           uint64         `json:"seq"`
	CreatedUnix   int64          `json:"created_unix_nano"`
	Options       v2Options      `json:"options"`
	InsertedKeys  uint64         `json:"inserted_keys"`
	Shards        []v2ShardEntry `json:"shards"`
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
	opt := server.FilterOptions{
		ExpectedKeys: 4096,
		BitsPerKey:   16,
		Shards:       4,
		Partitioning: server.PartitionRange,
	}
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata", "golden-v2-store", "events", "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	man := v2Manifest{
		FormatVersion: 2,
		Name:          "events",
		Seq:           1,
		CreatedUnix:   1753600000000000000, // fixed so regeneration is byte-stable
		Options: v2Options{
			ExpectedKeys: opt.ExpectedKeys,
			BitsPerKey:   opt.BitsPerKey,
			Shards:       opt.Shards,
			Partitioning: string(opt.Partitioning),
		},
		InsertedKeys: uint64(len(keys)),
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
		man.Shards = append(man.Shards, v2ShardEntry{
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
	log.Printf("wrote v2 fixture under %s", snapDir)
}
