package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenV1Keys mirrors scripts/gen_golden_v1: the deterministic key set
// inside the checked-in v1 snapshot fixture.
func goldenV1Keys() []uint64 {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return keys
}

// assertBlockVersion checks that every shard blob of name's newest
// snapshot in st is a bloomRF filter block of the given format version.
func assertBlockVersion(t *testing.T, st *Store, name string, want byte) {
	t.Helper()
	_, blobs, err := st.ReadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blobs {
		if len(b) < 5 || string(b[:4]) != "bRF1" || b[4] != want {
			t.Fatalf("%s shard %d: not a version-%d filter block (header % x)", name, i, want, b[:min(len(b), 5)])
		}
	}
}

// TestGoldenV1SnapshotRestore restores the checked-in hash-era snapshot
// (manifest format_version 1, written before the partitioning record and
// per-shard key counts existed) into the current code: the filter must come
// back hash-partitioned with every key intact, and re-snapshotting it must
// produce a current-version manifest that carries the routing forward.
func TestGoldenV1SnapshotRestore(t *testing.T) {
	st, err := OpenStore(filepath.Join("testdata", "golden-v1-store"))
	if err != nil {
		t.Fatal(err)
	}
	f, man, err := st.Restore("users")
	if err != nil {
		t.Fatalf("v1 snapshot no longer restores: %v", err)
	}
	if man.FormatVersion != 1 || man.Seq != 1 {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Options.Partitioning != PartitionHash {
		t.Fatalf("v1 manifest normalized to partitioning %q, want hash", man.Options.Partitioning)
	}
	if f.Partitioning() != PartitionHash || f.NumShards() != 2 {
		t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
	}
	st2 := f.Stats()
	if st2.InsertedKeys != 1024 {
		t.Fatalf("restored inserted_keys = %d, want 1024", st2.InsertedKeys)
	}
	for _, sk := range st2.ShardKeys {
		if sk != 0 { // v1 manifests predate per-shard counts
			t.Fatalf("v1 restore invented shard key counts: %v", st2.ShardKeys)
		}
	}
	for _, k := range goldenV1Keys() {
		if !f.MayContain(k) {
			t.Fatalf("v1 snapshot lost key %#x", k)
		}
		if !f.MayContainRange(k, k) {
			t.Fatalf("v1 snapshot lost key %#x for range probes", k)
		}
	}

	// RestoreAll sees the fixture too (the startup path bloomrfd takes).
	reg := NewRegistry()
	restored, skipped, err := st.RestoreAll(reg)
	if err != nil || len(restored) != 1 || len(skipped) != 0 {
		t.Fatalf("RestoreAll: %v %v %v", restored, skipped, err)
	}

	// A new snapshot of the restored filter is written in the current
	// format with the partitioning recorded — v1 is read-compatible, not
	// write-preserved.
	st3, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st3.Snapshot("users", f)
	if err != nil {
		t.Fatal(err)
	}
	if man2.FormatVersion != manifestVersion || man2.Options.Partitioning != PartitionHash {
		t.Fatalf("re-snapshot manifest = %+v", man2)
	}
	assertBlockVersion(t, st, "users", 1)  // the fixture's blobs are version-1 filter blocks
	assertBlockVersion(t, st3, "users", 2) // re-written blobs are version 2
	g, _, err := st3.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, f, g, goldenV1Keys(), 94)
}

// TestGoldenV2SnapshotRestore restores the checked-in range-era snapshot
// (manifest format_version 2, written before the write-ahead log existed)
// into the current code: the filter must come back range-partitioned with
// every key and per-shard count intact, a zero WAL position (replay
// everything — there was no log to position against), and re-snapshotting
// must produce a current-version manifest.
func TestGoldenV2SnapshotRestore(t *testing.T) {
	st, err := OpenStore(filepath.Join("testdata", "golden-v2-store"))
	if err != nil {
		t.Fatal(err)
	}
	f, man, err := st.Restore("events")
	if err != nil {
		t.Fatalf("v2 snapshot no longer restores: %v", err)
	}
	if man.FormatVersion != 2 || man.Seq != 1 || man.WALPos != 0 {
		t.Fatalf("manifest = %+v", man)
	}
	if f.Partitioning() != PartitionRange || f.NumShards() != 4 {
		t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
	}
	st2 := f.Stats()
	if st2.InsertedKeys != 1024 {
		t.Fatalf("restored inserted_keys = %d, want 1024", st2.InsertedKeys)
	}
	var sum uint64
	for _, sk := range st2.ShardKeys {
		sum += sk
	}
	if sum != 1024 { // v2 manifests carry per-shard counts; they must survive
		t.Fatalf("restored shard key counts sum to %d: %v", sum, st2.ShardKeys)
	}
	for _, k := range goldenV1Keys() { // same deterministic key sequence
		if !f.MayContain(k) {
			t.Fatalf("v2 snapshot lost key %#x", k)
		}
		if !f.MayContainRange(k, k) {
			t.Fatalf("v2 snapshot lost key %#x for range probes", k)
		}
	}

	// A new snapshot of the restored filter is written in the current
	// format, routing preserved.
	st3, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st3.Snapshot("events", f)
	if err != nil {
		t.Fatal(err)
	}
	if man2.FormatVersion != manifestVersion || man2.Options.Partitioning != PartitionRange {
		t.Fatalf("re-snapshot manifest = %+v", man2)
	}
	assertBlockVersion(t, st, "events", 1)  // the fixture's blobs are version-1 filter blocks
	assertBlockVersion(t, st3, "events", 2) // re-written blobs are version 2
	g, _, err := st3.Restore("events")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, f, g, goldenV1Keys(), 95)
}

// TestGoldenV3SnapshotRestore restores the checked-in WAL-era snapshot
// (manifest format_version 3, written before backend selection existed)
// into the current code: the filter must come back as a range-partitioned
// bloomRF filter with every key and the recorded WAL position intact, and
// re-snapshotting must produce a v4 manifest that records the backend.
func TestGoldenV3SnapshotRestore(t *testing.T) {
	st, err := OpenStore(filepath.Join("testdata", "golden-v3-store"))
	if err != nil {
		t.Fatal(err)
	}
	f, man, err := st.Restore("sessions")
	if err != nil {
		t.Fatalf("v3 snapshot no longer restores: %v", err)
	}
	if man.FormatVersion != 3 || man.Seq != 1 || man.WALPos != 8192 {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Options.Backend != BackendBloomRF {
		t.Fatalf("v3 manifest normalized to backend %q, want bloomrf", man.Options.Backend)
	}
	if f.Partitioning() != PartitionRange || f.NumShards() != 4 {
		t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
	}
	st2 := f.Stats()
	if st2.Backend != BackendBloomRF {
		t.Fatalf("restored stats backend = %q, want bloomrf", st2.Backend)
	}
	if st2.InsertedKeys != 1024 {
		t.Fatalf("restored inserted_keys = %d, want 1024", st2.InsertedKeys)
	}
	for _, k := range goldenV1Keys() { // same deterministic key sequence
		if !f.MayContain(k) {
			t.Fatalf("v3 snapshot lost key %#x", k)
		}
		if !f.MayContainRange(k, k) {
			t.Fatalf("v3 snapshot lost key %#x for range probes", k)
		}
	}

	// A new snapshot of the restored filter is a v4 manifest with the
	// backend recorded; it restores to identical answers.
	st3, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st3.Snapshot("sessions", f)
	if err != nil {
		t.Fatal(err)
	}
	if man2.FormatVersion != manifestVersion || man2.Options.Backend != BackendBloomRF ||
		man2.Options.Partitioning != PartitionRange {
		t.Fatalf("re-snapshot manifest = %+v", man2)
	}
	assertBlockVersion(t, st, "sessions", 1)  // the fixture's blobs are version-1 filter blocks
	assertBlockVersion(t, st3, "sessions", 2) // re-written blobs are version 2
	g, _, err := st3.Restore("sessions")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, f, g, goldenV1Keys(), 96)
}

// TestManifestVersionRejection pins the reader's version policy: future
// manifest versions and v1 manifests claiming non-hash routing (which the
// v1 era could not have written) are rejected rather than guessed at, and
// restore falls through to ErrNoSnapshot.
func TestManifestVersionRejection(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("users", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("users"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: untouched manifest restores.
	if _, _, err := st.Restore("users"); err != nil {
		t.Fatal(err)
	}
	// A future version is not guessed at.
	rewrite(func(m map[string]any) { m["format_version"] = float64(manifestVersion + 1) })
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("future manifest version restored")
	}
	// A v1 manifest claiming range routing is corrupt: that era had none.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(1)
		m["options"].(map[string]any)["partitioning"] = "range"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v1 manifest with range partitioning restored")
	}
	// Current version with garbage partitioning is rejected too.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		m["options"].(map[string]any)["partitioning"] = "zigzag"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("invalid partitioning restored")
	}
	// A v2 manifest claiming a WAL position is corrupt: that era had no log.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(2)
		m["options"].(map[string]any)["partitioning"] = "hash"
		delete(m["options"].(map[string]any), "backend")
		m["wal_pos"] = float64(4711)
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v2 manifest with wal_pos restored")
	}
	// A v3 manifest claiming a backend is corrupt: backend selection is v4.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(3)
		m["options"].(map[string]any)["backend"] = "bloomrf"
		delete(m, "wal_pos")
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v3 manifest with a backend restored")
	}
	// Current version with a garbage backend is rejected, as is one with no
	// backend at all (v4 writers always record it).
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		m["options"].(map[string]any)["backend"] = "cuckoo"
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("invalid backend restored")
	}
	rewrite(func(m map[string]any) {
		delete(m["options"].(map[string]any), "backend")
	})
	if _, _, err := st.Restore("users"); err == nil {
		t.Fatal("v4 manifest without a backend restored")
	}
	// And back to a faithful v1 shape (no partitioning, backend or epoch
	// keys at all): restores as a hash-routed bloomRF filter.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(1)
		delete(m["options"].(map[string]any), "partitioning")
		delete(m, "wal_pos")
		delete(m, "epoch")
	})
	g, man, err := st.Restore("users")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != 1 || g.Partitioning() != PartitionHash {
		t.Fatalf("v1-shaped manifest: version %d, partitioning %q", man.FormatVersion, g.Partitioning())
	}
	if man.Options.Backend != BackendBloomRF || g.Stats().Backend != BackendBloomRF {
		t.Fatalf("v1-shaped manifest restored with backend %q, want bloomrf", man.Options.Backend)
	}
}

// TestGoldenV4SnapshotRestore restores the checked-in backend-era snapshot
// (manifest format_version 4, written after backend selection but before
// span-start tables and shard mutation epochs existed) into the current
// code: the filter must come back range-partitioned with every key and the
// recorded WAL position intact, its spans rebuilt by even division (the
// only topology a v4 writer could have had), and re-snapshotting must
// produce a v5 manifest that records the span table.
func TestGoldenV4SnapshotRestore(t *testing.T) {
	st, err := OpenStore(filepath.Join("testdata", "golden-v4-store"))
	if err != nil {
		t.Fatal(err)
	}
	f, man, err := st.Restore("orders")
	if err != nil {
		t.Fatalf("v4 snapshot no longer restores: %v", err)
	}
	if man.FormatVersion != 4 || man.Seq != 1 || man.WALPos != 8192 {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Options.Backend != BackendBloomRF {
		t.Fatalf("v4 manifest backend = %q, want bloomrf", man.Options.Backend)
	}
	if man.Spans != nil {
		t.Fatalf("v4 manifest carries spans %v; the span table is v5", man.Spans)
	}
	if f.Partitioning() != PartitionRange || f.NumShards() != 4 {
		t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
	}
	st2 := f.Stats()
	if st2.InsertedKeys != 1024 {
		t.Fatalf("restored inserted_keys = %d, want 1024", st2.InsertedKeys)
	}
	// A pre-split-era snapshot can only have had evenly divided spans.
	if len(st2.Spans) != 4 || st2.Spans[0] != 0 {
		t.Fatalf("restored spans = %v", st2.Spans)
	}
	w := uint64(1) << 62 // keyspace / 4
	for i, s := range st2.Spans {
		if s != uint64(i)*w {
			t.Fatalf("restored spans not evenly divided: %v", st2.Spans)
		}
	}
	for _, k := range goldenV1Keys() { // same deterministic key sequence
		if !f.MayContain(k) {
			t.Fatalf("v4 snapshot lost key %#x", k)
		}
		if !f.MayContainRange(k, k) {
			t.Fatalf("v4 snapshot lost key %#x for range probes", k)
		}
	}

	// A new snapshot of the restored filter is a v5 manifest recording the
	// span table; it restores to identical answers.
	st3, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st3.Snapshot("orders", f)
	if err != nil {
		t.Fatal(err)
	}
	if man2.FormatVersion != manifestVersion || len(man2.Spans) != 4 {
		t.Fatalf("re-snapshot manifest = %+v", man2)
	}
	assertBlockVersion(t, st, "orders", 1)  // the fixture's blobs are version-1 filter blocks
	assertBlockVersion(t, st3, "orders", 2) // re-written blobs are version 2
	g, _, err := st3.Restore("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, f, g, goldenV1Keys(), 97)
}

// TestGoldenV5SnapshotRestore restores the checked-in split-era snapshot
// (manifest format_version 5, written after live splitting but before
// promotion epochs existed) into the current code: the filter must come
// back range-partitioned with every key, the recorded span table and WAL
// position intact, and re-snapshotting must produce a v6 manifest that
// records an epoch.
func TestGoldenV5SnapshotRestore(t *testing.T) {
	st, err := OpenStore(filepath.Join("testdata", "golden-v5-store"))
	if err != nil {
		t.Fatal(err)
	}
	f, man, err := st.Restore("ledger")
	if err != nil {
		t.Fatalf("v5 snapshot no longer restores: %v", err)
	}
	if man.FormatVersion != 5 || man.Seq != 1 || man.WALPos != 8192 {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Epoch != 0 {
		t.Fatalf("v5 manifest claims epoch %d; promotion epochs are v6", man.Epoch)
	}
	if len(man.Spans) != 4 || man.Spans[0] != 0 {
		t.Fatalf("v5 manifest spans = %v", man.Spans)
	}
	if f.Partitioning() != PartitionRange || f.NumShards() != 4 {
		t.Fatalf("restored filter: partitioning %q, shards %d", f.Partitioning(), f.NumShards())
	}
	if got := f.Stats().InsertedKeys; got != 1024 {
		t.Fatalf("restored inserted_keys = %d, want 1024", got)
	}
	for _, k := range goldenV1Keys() { // same deterministic key sequence
		if !f.MayContain(k) {
			t.Fatalf("v5 snapshot lost key %#x", k)
		}
		if !f.MayContainRange(k, k) {
			t.Fatalf("v5 snapshot lost key %#x for range probes", k)
		}
	}

	// A new snapshot of the restored filter is a v6 manifest recording a
	// promotion epoch; it restores to identical answers.
	st2, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st2.Snapshot("ledger", f)
	if err != nil {
		t.Fatal(err)
	}
	if man2.FormatVersion != manifestVersion || man2.Epoch != 1 || len(man2.Spans) != 4 {
		t.Fatalf("re-snapshot manifest = %+v", man2)
	}
	assertBlockVersion(t, st, "ledger", 1)  // the fixture's blobs are version-1 filter blocks
	assertBlockVersion(t, st2, "ledger", 2) // re-written blobs are version 2
	g, _, err := st2.Restore("ledger")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalAnswers(t, f, g, goldenV1Keys(), 98)
}

// TestManifestV5SpanRules pins the reader's policy on the two fields v5
// introduced for live splitting: the span-start table and per-shard
// mutation epochs. Pre-v5 manifests claiming either are corrupt (those
// eras could not have written them); v5 range manifests must carry a span
// table that tiles the keyspace and matches the shard count, and v5 hash
// manifests must not carry one at all.
func TestManifestV5SpanRules(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch([]uint64{1, 2, 3, 1 << 63})
	if _, err := st.Snapshot("spans", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("spans"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: the snapshot just written restores, spans and all.
	g, man, err := st.Restore("spans")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != manifestVersion || len(man.Spans) != 2 || len(g.Stats().Spans) != 2 {
		t.Fatalf("v5 range manifest = %+v", man)
	}
	// A v4 manifest carrying a span table is corrupt: the table is v5.
	rewrite(func(m map[string]any) { m["format_version"] = float64(4) })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v4 manifest with spans restored")
	}
	// A v4 manifest claiming a shard mutation epoch is corrupt too.
	rewrite(func(m map[string]any) {
		delete(m, "spans")
		m["shards"].([]any)[0].(map[string]any)["mut"] = float64(7)
	})
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v4 manifest with a shard mutation epoch restored")
	}
	// A v5 range manifest without a span table is corrupt: v5 writers
	// always record it (splits make the division non-uniform).
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		delete(m["shards"].([]any)[0].(map[string]any), "mut")
	})
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest without spans restored")
	}
	// A span table disagreeing with the shard count is corrupt.
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(0)} })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest with a 1-entry span table restored for 2 shards")
	}
	// A span table not anchored at 0 does not tile the keyspace.
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(1), float64(1 << 32)} })
	if _, _, err := st.Restore("spans"); err == nil {
		t.Fatal("v5 range manifest with spans not starting at 0 restored")
	}
	// Restored faithfully as v4 (no spans, no mut, no epoch anywhere):
	// spans rebuilt evenly.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(4)
		delete(m, "spans")
		delete(m, "epoch")
		for _, sh := range m["shards"].([]any) {
			delete(sh.(map[string]any), "mut")
		}
	})
	g2, man2, err := st.Restore("spans")
	if err != nil {
		t.Fatalf("faithful v4 shape stopped restoring: %v", err)
	}
	if man2.FormatVersion != 4 || len(g2.Stats().Spans) != 2 || g2.Stats().Spans[1] != 1<<63 {
		t.Fatalf("v4-shaped manifest: %+v spans %v", man2, g2.Stats().Spans)
	}

	// The hash side: a v5 hash manifest must not carry a span table.
	h, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot("hashed", h); err != nil {
		t.Fatal(err)
	}
	manPath = filepath.Join(st.filterDir("hashed"), snapDirName(1), manifestName)
	if _, _, err := st.Restore("hashed"); err != nil {
		t.Fatal(err)
	}
	rewrite(func(m map[string]any) { m["spans"] = []any{float64(0), float64(1 << 63)} })
	if _, _, err := st.Restore("hashed"); err == nil {
		t.Fatal("v5 hash manifest with spans restored")
	}
}

// TestManifestV6EpochRules pins the reader's policy on the field v6
// introduced for failover: the promotion epoch. Pre-v6 manifests claiming
// one are corrupt (those eras had no failover), and v6 writers always
// record it, so a v6 manifest without one is corrupt too.
func TestManifestV6EpochRules(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(FilterOptions{ExpectedKeys: 1000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch([]uint64{1, 2, 3})
	if _, err := st.Snapshot("epochs", f); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.filterDir("epochs"), snapDirName(1), manifestName)

	rewrite := func(mutate func(m map[string]any)) {
		t.Helper()
		body, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		body, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: a fresh snapshot is a v6 manifest recording epoch 1 (a store
	// with no epoch source predates any promotion).
	_, man, err := st.Restore("epochs")
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != manifestVersion || man.Epoch != 1 {
		t.Fatalf("fresh manifest = version %d epoch %d, want version %d epoch 1",
			man.FormatVersion, man.Epoch, manifestVersion)
	}
	// The store's epoch source flows into new manifests (the promoted
	// primary's snapshots carry its bumped epoch). A separate filter name
	// keeps "epochs" at a single snapshot for the rewrite tests below.
	st.SetEpochSource(func() uint64 { return 7 })
	if _, err := st.Snapshot("promoted", f); err != nil {
		t.Fatal(err)
	}
	if _, man, err = st.Restore("promoted"); err != nil || man.Epoch != 7 {
		t.Fatalf("epoch-source manifest = %+v, err %v; want epoch 7", man, err)
	}
	// A v5 manifest claiming an epoch is corrupt: epochs are v6.
	rewrite(func(m map[string]any) { m["format_version"] = float64(5) })
	if _, _, err := st.Restore("epochs"); err == nil {
		t.Fatal("v5 manifest with an epoch restored")
	}
	// A v6 manifest without an epoch is corrupt: v6 writers always record it.
	rewrite(func(m map[string]any) {
		m["format_version"] = float64(manifestVersion)
		delete(m, "epoch")
	})
	if _, _, err := st.Restore("epochs"); err == nil {
		t.Fatal("v6 manifest without an epoch restored")
	}
	// A faithful v5 shape (no epoch key at all) restores: that era simply
	// predates failover, and recovery treats it as epoch 0 (→ boot at 1).
	rewrite(func(m map[string]any) { m["format_version"] = float64(5) })
	g, man2, err := st.Restore("epochs")
	if err != nil {
		t.Fatalf("faithful v5 shape stopped restoring: %v", err)
	}
	if man2.FormatVersion != 5 || man2.Epoch != 0 {
		t.Fatalf("v5-shaped manifest = version %d epoch %d", man2.FormatVersion, man2.Epoch)
	}
	if !g.MayContain(2) {
		t.Fatal("v5-shaped restore lost key 2")
	}
}
