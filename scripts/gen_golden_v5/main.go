// Command gen_golden_v5 regenerates the checked-in golden v5 snapshot
// fixture at internal/server/testdata/golden-v5-store. The fixture is a
// split-era (manifest format_version 5) snapshot — the manifest records the
// span-start table and per-shard mutation epochs that arrived with live
// splitting, but no promotion epoch (that arrived in v6 with failover) —
// used by TestGoldenV5SnapshotRestore to pin that snapshots written just
// before failover existed stay restorable and re-snapshot as v6 with an
// epoch recorded.
//
// The checked-in shard blobs are version-1 filter blocks (FNV-1a trailer).
// Do not regenerate the fixture: the blobs come from today's encoder, so a
// re-run would replace them with version-2 blocks and drop the fixture's
// coverage of version-1 blocks. The manifest bytes are written from
// literal v5 structs with a fixed timestamp.
//
//	go run ./scripts/gen_golden_v5
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

// v5 manifest schema, frozen as it was written after span-start tables and
// shard mutation epochs but before promotion epochs.
type v5Options struct {
	ExpectedKeys uint64  `json:"expected_keys"`
	BitsPerKey   float64 `json:"bits_per_key"`
	MaxRange     float64 `json:"max_range"`
	Shards       int     `json:"shards"`
	Partitioning string  `json:"partitioning"`
	Backend      string  `json:"backend"`
}

type v5ShardEntry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	Keys   uint64 `json:"keys,omitempty"`
	Mut    uint64 `json:"mut,omitempty"`
}

type v5Manifest struct {
	FormatVersion int            `json:"format_version"`
	Name          string         `json:"name"`
	Seq           uint64         `json:"seq"`
	CreatedUnix   int64          `json:"created_unix_nano"`
	Options       v5Options      `json:"options"`
	InsertedKeys  uint64         `json:"inserted_keys"`
	Shards        []v5ShardEntry `json:"shards"`
	WALPos        uint64         `json:"wal_pos,omitempty"`
	Spans         []uint64       `json:"spans,omitempty"`
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
		Backend:      "bloomrf",
	}
	f, err := server.NewSharded(opt)
	if err != nil {
		log.Fatal(err)
	}
	keys := fixtureKeys()
	f.InsertBatch(keys)

	snapDir := filepath.Join("internal", "server", "testdata", "golden-v5-store", "ledger", "snap-0000000001")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		log.Fatal(err)
	}
	st := f.Stats()
	man := v5Manifest{
		FormatVersion: 5,
		Name:          "ledger",
		Seq:           1,
		CreatedUnix:   1753600000000000000, // fixed so regeneration is byte-stable
		Options: v5Options{
			ExpectedKeys: opt.ExpectedKeys,
			BitsPerKey:   opt.BitsPerKey,
			Shards:       opt.Shards,
			Partitioning: string(opt.Partitioning),
			Backend:      opt.Backend,
		},
		InsertedKeys: uint64(len(keys)),
		WALPos:       8192, // a v5 snapshot taken with a live WAL records its position
		Spans:        st.Spans,
	}
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
		man.Shards = append(man.Shards, v5ShardEntry{
			File:   filepath.Base(file),
			Bytes:  int64(len(blob)),
			CRC32C: crc32.Checksum(blob, castagnoli),
			Keys:   st.ShardKeys[i],
			// v5 writers record the shard's live mutation epoch; restore
			// ignores the value, so the fixture freezes a plausible one.
			Mut: 1,
		})
	}
	body, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "manifest.json"), body, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote v5 fixture under %s", snapDir)
}
