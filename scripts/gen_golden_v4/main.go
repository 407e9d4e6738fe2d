// Command gen_golden_v4 regenerates the checked-in golden v4 snapshot
// fixture at internal/server/testdata/golden-v4-store. The fixture is a
// backend-era (manifest format_version 4) snapshot — options record the
// backend, but the manifest carries no span-start table and the shard
// entries no mutation epochs (both arrived in v5 with live splitting) —
// used by TestGoldenV4SnapshotRestore to pin that snapshots written just
// before splitting existed stay restorable, rebuild their spans by even
// division, and re-snapshot as v5.
//
// The checked-in shard blobs are version-1 filter blocks (FNV-1a trailer).
// Do not regenerate the fixture: the blobs come from today's encoder, so a
// re-run would replace them with version-2 blocks and drop the fixture's
// coverage of version-1 blocks. The manifest bytes are written from
// literal v4 structs with a fixed timestamp.
//
//	go run ./scripts/gen_golden_v4
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

// v4 manifest schema, frozen as it was written after backend selection but
// before span-start tables and shard mutation epochs.
type v4Options struct {
	ExpectedKeys uint64  `json:"expected_keys"`
	BitsPerKey   float64 `json:"bits_per_key"`
	MaxRange     float64 `json:"max_range"`
	Shards       int     `json:"shards"`
	Partitioning string  `json:"partitioning"`
	Backend      string  `json:"backend"`
}

type v4ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	Keys   uint64 `json:"keys,omitempty"`
}

type v4Manifest struct {
	FormatVersion int            `json:"format_version"`
	Name          string         `json:"name"`
	Seq           uint64         `json:"seq"`
	CreatedUnix   int64          `json:"created_unix_nano"`
	Options       v4Options      `json:"options"`
	InsertedKeys  uint64         `json:"inserted_keys"`
	Shards        []v4ShardEntry `json:"shards"`
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
		Backend:      "bloomrf", // v4 manifests record the backend explicitly
	}
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata", "golden-v4-store", "orders", "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	man := v4Manifest{
		FormatVersion: 4,
		Name:          "orders",
		Seq:           1,
		CreatedUnix:   1753600000000000000, // fixed so regeneration is byte-stable
		Options: v4Options{
			ExpectedKeys: opt.ExpectedKeys,
			BitsPerKey:   opt.BitsPerKey,
			Shards:       opt.Shards,
			Partitioning: string(opt.Partitioning),
			Backend:      opt.Backend,
		},
		InsertedKeys: uint64(len(keys)),
		WALPos:       8192, // a v4 snapshot taken with a live WAL records its position
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
		man.Shards = append(man.Shards, v4ShardEntry{
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
	log.Printf("wrote v4 fixture under %s", snapDir)
}
