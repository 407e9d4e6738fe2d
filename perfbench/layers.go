package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	bloomrf "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run's in-process layer measurements. Each times calls into
// one module's public functions from this file, at the workload's sizes
// and batch shapes, with no HTTP in between:
//
//	core    the root bloomrf filter (over internal/core)
//	wire    binary frame decode and result encode
//	server  ShardedFilter dispatch+probe, Store snapshot/restore,
//	        ReplayWAL, Follower bootstrap and apply
//	wal     group-commit append and fsync
//
// Every timed call is also recorded as a span.

// layerBudget is how long each probe measurement repeats its call.
const layerBudget = 400 * time.Millisecond

// tailRecords is the number of insert records behind the in-process
// replay and replication measurements.
const tailRecords = 2000

func (b *bench) runLayers(ctx context.Context) error {
	rec := &recorder{}
	b.recs = append(b.recs, rec)
	var id uint64
	nextID := func() uint64 { id++; return 1<<62 | id }

	reads := b.sampleRequests(kindRead, 64)
	ranges := b.sampleRequests(kindRange, 64)

	if err := b.coreLayer(rec, nextID, reads, ranges); err != nil {
		return err
	}
	runtime.GC()
	sf, err := server.NewSharded(server.FilterOptions{
		ExpectedKeys: b.w.Keys, BitsPerKey: b.w.BitsPerKey, MaxRange: float64(b.w.MaxRange),
		Shards: b.w.Shards, Partitioning: server.Partitioning(b.w.Partitioning),
	})
	if err != nil {
		return fmt.Errorf("building the sharded filter: %w", err)
	}
	b.insertAll(rec, nextID, "server.sharded_insert", "server.sharded_insert_ns_per_item", sf.InsertBatch)
	b.wireAndDispatch(rec, nextID, sf, reads, ranges)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.walLayer(rec, nextID); err != nil {
		return err
	}
	return b.storeLayer(ctx, rec, nextID, sf)
}

// sampleRequests builds n requests of the given class with the workload's
// own batch shape.
func (b *bench) sampleRequests(k kind, n int) []request {
	si := b.w.streamOf(k)
	out := make([]request, n)
	for i := range out {
		b.in.build(&out[i], phaseClosed, job{stream: si, index: uint64(1<<30 + i)})
	}
	return out
}

// timeLoop repeats fn until layerBudget has elapsed (at least once) and
// returns the time taken.
func timeLoop(fn func(i int)) time.Duration {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < layerBudget; n++ {
		fn(n)
	}
	return time.Since(start)
}

// insertAll inserts the workload's preload keys in 64k-key batches.
func (b *bench) insertAll(rec *recorder, nextID func() uint64, span, metricName string, insert func([]uint64)) {
	keys := make([]uint64, 0, 1<<16)
	var total time.Duration
	for lo := uint64(0); lo < b.w.Keys; lo += 1 << 16 {
		keys = keys[:0]
		for k := lo; k < min(lo+1<<16, b.w.Keys); k++ {
			keys = append(keys, preloadKey(b.opt.seed, k))
		}
		t0 := time.Now()
		insert(keys)
		t1 := time.Now()
		total += t1.Sub(t0)
		rec.add(nextID(), -1, span, since(t0), since(t1))
	}
	b.setLayer(metricName, float64(total.Nanoseconds())/float64(b.w.Keys), "ns")
}

// coreLayer measures the root filter at the workload's size: insert,
// point batches and range batches.
func (b *bench) coreLayer(rec *recorder, nextID func() uint64, reads, ranges []request) error {
	var f *bloomrf.Filter
	if b.w.MaxRange > 0 {
		var err error
		f, _, err = bloomrf.NewTuned(bloomrf.Options{ExpectedKeys: b.w.Keys, BitsPerKey: b.w.BitsPerKey, MaxRange: float64(b.w.MaxRange)})
		if err != nil {
			return fmt.Errorf("building the core filter: %w", err)
		}
	} else {
		f = bloomrf.New(b.w.Keys, b.w.BitsPerKey)
	}
	b.insertAll(rec, nextID, "core.insert", "core.insert_ns_per_key", f.InsertBatch)
	out := make([]bool, 1<<12)
	items := 0
	d := timeLoop(func(i int) {
		r := &reads[i%len(reads)]
		t0 := time.Now()
		f.MayContainBatch(r.keys, out[:len(r.keys)])
		rec.add(nextID(), -1, "core.point", since(t0), since(time.Now()))
		items += len(r.keys)
	})
	b.setLayer("core.point_ns_per_key", float64(d.Nanoseconds())/float64(items), "ns")
	items = 0
	d = timeLoop(func(i int) {
		r := &ranges[i%len(ranges)]
		t0 := time.Now()
		f.MayContainRangeBatch(r.ranges, out[:len(r.ranges)])
		rec.add(nextID(), -1, "core.range", since(t0), since(time.Now()))
		items += len(r.ranges)
	})
	b.setLayer("core.range_ns_per_range", float64(d.Nanoseconds())/float64(items), "ns")
	return nil
}

// wireAndDispatch runs the server's binary point pipeline in-process —
// decode the request frame, probe through ShardedFilter, encode the
// verdict frame — as one root span with a child per layer, and the range
// path through ShardedFilter alone.
func (b *bench) wireAndDispatch(rec *recorder, nextID func() uint64, sf *server.ShardedFilter, reads, ranges []request) {
	frames := make([][]byte, len(reads))
	for i := range reads {
		frames[i] = wire.AppendKeysRequest(nil, wire.OpQuery, reads[i].keys)
	}
	keys := make([]uint64, 0, 1<<12)
	out := make([]bool, 1<<12)
	var resp []byte
	var dec, probe, enc time.Duration
	items := 0
	timeLoop(func(i int) {
		fr := frames[i%len(frames)]
		id := nextID()
		t0 := time.Now()
		h, err := wire.ParseHeader(fr)
		if err == nil {
			keys, err = wire.DecodeKeys(h, fr[wire.HeaderSize:], keys[:0])
		}
		if err != nil {
			panic(err) // frames are built above by the same package
		}
		t1 := time.Now()
		sf.MayContainBatch(keys, out[:len(keys)])
		t2 := time.Now()
		resp = wire.AppendResult(resp[:0], out[:len(keys)])
		t3 := time.Now()
		root := rec.add(id, -1, "inproc.point", since(t0), since(t3))
		rec.add(id, root, "wire.decode", since(t0), since(t1))
		rec.add(id, root, "server.sharded_point", since(t1), since(t2))
		rec.add(id, root, "wire.encode", since(t2), since(t3))
		dec, probe, enc = dec+t1.Sub(t0), probe+t2.Sub(t1), enc+t3.Sub(t2)
		items += len(keys)
	})
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(items) }
	b.setLayer("wire.decode_ns_per_key", per(dec), "ns")
	b.setLayer("server.sharded_point_ns_per_item", per(probe), "ns")
	b.setLayer("wire.encode_ns_per_key", per(enc), "ns")
	items = 0
	d := timeLoop(func(i int) {
		r := &ranges[i%len(ranges)]
		t0 := time.Now()
		sf.MayContainRangeBatch(r.ranges, out[:len(r.ranges)])
		rec.add(nextID(), -1, "server.sharded_range", since(t0), since(time.Now()))
		items += len(r.ranges)
	})
	b.setLayer("server.sharded_range_ns_per_item", float64(d.Nanoseconds())/float64(items), "ns")
}

// insertRecord encodes a WAL record shaped like the server's insert
// record (name length, name, 8-byte keys) for the workload's write batch.
func (b *bench) insertRecord(i int) wal.Record {
	batch := b.w.Streams[b.w.streamOf(kindWrite)].Batch
	data := make([]byte, 2+len(filterName)+8*batch)
	binary.LittleEndian.PutUint16(data, uint16(len(filterName)))
	copy(data[2:], filterName)
	for j := 0; j < batch; j++ {
		binary.LittleEndian.PutUint64(data[2+len(filterName)+8*j:], b.in.tailKey(1<<20, uint64(i*batch+j)))
	}
	return wal.Record{Type: 2, Data: data}
}

// walLayer appends insert-sized records from `conns` goroutines under the
// workload's sync policy and reports append and fsync latency, group
// commit size and bytes per key.
func (b *bench) walLayer(rec *recorder, nextID func() uint64) error {
	dir := filepath.Join(b.dir, "layer-wal")
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncPolicy(b.w.WALSync)})
	if err != nil {
		return fmt.Errorf("opening WAL: %w", err)
	}
	defer os.RemoveAll(dir)
	records := make([]wal.Record, 256)
	for i := range records {
		records[i] = b.insertRecord(i)
	}
	start := l.Stats()
	lat := make([][]float64, conns)
	recs := make([]*recorder, conns)
	var appendErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(layerBudget)
	for g := 0; g < conns; g++ {
		recs[g] = &recorder{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				_, fsyncNs, err := l.AppendTraced(records[(i*conns+g)%len(records)])
				t1 := time.Now()
				if err != nil {
					mu.Lock()
					appendErr = err
					mu.Unlock()
					return
				}
				id := uint64(g+1)<<56 | uint64(i)
				root := recs[g].add(id, -1, "wal.append", since(t0), since(t1))
				if fsyncNs > 0 {
					recs[g].add(id, root, "wal.fsync", since(t1)-fsyncNs, since(t1))
				}
				lat[g] = append(lat[g], float64(t1.Sub(t0).Nanoseconds())/1e3)
			}
		}(g)
	}
	wg.Wait()
	end := l.Stats()
	if err := l.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	if appendErr != nil {
		return fmt.Errorf("WAL append: %w", appendErr)
	}
	b.recs = append(b.recs, recs...)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	appends := float64(end.Appends - start.Appends)
	batch := b.w.Streams[b.w.streamOf(kindWrite)].Batch
	b.setLayer("wal.append_us_p50", quantile(all, 0.50), "us")
	b.setLayer("wal.append_us_p99", quantile(all, 0.99), "us")
	b.setLayer("wal.fsync_us_p50", fsyncQuantile(end.FsyncLatency, 0.50), "us")
	b.setLayer("wal.fsync_us_p99", fsyncQuantile(end.FsyncLatency, 0.99), "us")
	b.setLayer("wal.records_per_commit", appends/float64(end.GroupCommits-start.GroupCommits), "records")
	b.setLayer("wal.bytes_per_key", float64(end.End-start.End)/(appends*float64(batch)), "B")
	return nil
}

func fsyncQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0 // the policy never fsyncs on the append path
	}
	return float64(h.Quantile(q)) / 1e3
}

// storeLayer snapshots the preloaded sharded filter, writes tailRecords
// inserts through the API into the WAL, bootstraps a Follower from it over
// loopback HTTP, and finally restores and replays into a fresh registry.
func (b *bench) storeLayer(ctx context.Context, rec *recorder, nextID func() uint64, sf *server.ShardedFilter) error {
	dir := filepath.Join(b.dir, "layer-store")
	defer os.RemoveAll(dir)
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncPolicy(b.w.WALSync)}
	l, err := wal.Open(walOpts)
	if err != nil {
		return fmt.Errorf("opening WAL: %w", err)
	}
	st, err := server.OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		return err
	}
	st.SetWALSource(l)
	reg := server.NewRegistry()
	if err := reg.Register(filterName, sf); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := st.Snapshot(filterName, sf); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	d := time.Since(t0)
	rec.add(nextID(), -1, "store.snapshot", since(t0), since(time.Now()))
	mb := float64(sf.LastSnapshot().Bytes) / (1 << 20)
	b.setLayer("store.snapshot_s", d.Seconds(), "s")
	b.setLayer("store.snapshot_mb_per_s", mb/d.Seconds(), "MB/s")

	api := server.NewConfiguredAPI(reg, st, server.Config{WAL: l, Logf: func(string, ...any) {}})
	batch := b.w.Streams[b.w.streamOf(kindWrite)].Batch
	keys := make([]uint64, batch)
	var body []byte
	for i := 0; i < tailRecords; i++ {
		for j := range keys {
			keys[j] = b.in.tailKey(1<<21, uint64(i*batch+j))
		}
		body = wire.AppendKeysRequest(body[:0], wire.OpInsert, keys)
		req := httptest.NewRequest(http.MethodPost, "/v1/filters/"+filterName+"/insert", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentType)
		w := httptest.NewRecorder()
		api.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("in-process insert: %d %s", w.Code, w.Body.String())
		}
	}

	if err := b.followerLayer(ctx, rec, nextID, api, l); err != nil {
		return err
	}
	api.Close()
	if err := l.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	runtime.GC()

	l2, err := wal.Open(walOpts)
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	defer l2.Close()
	st2, err := server.OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		return err
	}
	reg2 := server.NewRegistry()
	t0 = time.Now()
	restored, _, err := st2.RestoreAll(reg2)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	t1 := time.Now()
	pos := map[string]uint64{}
	for name, man := range restored {
		pos[name] = man.WALPos
	}
	stats, err := server.ReplayWAL(l2, reg2, pos, nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	t2 := time.Now()
	id := nextID()
	root := rec.add(id, -1, "server.recover", since(t0), since(t2))
	rec.add(id, root, "store.restore", since(t0), since(t1))
	rec.add(id, root, "server.replay_wal", since(t1), since(t2))
	b.setLayer("store.restore_s", t1.Sub(t0).Seconds(), "s")
	b.setLayer("store.replay_records_per_s", float64(stats.Batches)/t2.Sub(t1).Seconds(), "1/s")
	if stats.Batches != tailRecords {
		return fmt.Errorf("replay applied %d insert records, want %d", stats.Batches, tailRecords)
	}
	return nil
}

// followerLayer bootstraps a Follower from the API over loopback HTTP and
// times bootstrap (snapshot received, filter registered) and the apply of
// the tailRecords that follow it.
func (b *bench) followerLayer(ctx context.Context, rec *recorder, nextID func() uint64, api *server.API, l *wal.Log) error {
	srv := httptest.NewServer(api)
	defer srv.Close()
	reg := server.NewRegistry()
	fo, err := server.NewFollower(srv.URL, reg, nil)
	if err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	t0 := time.Now()
	go func() { defer close(done); fo.Run(runCtx) }()
	defer func() { fo.Stop(); cancel(); <-done }()
	target := l.End()
	var tBoot time.Time
	deadline := t0.Add(120 * time.Second)
	for {
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("in-process follower did not catch up (%+v)", fo.Status())
		}
		if tBoot.IsZero() {
			if _, err := reg.Get(filterName); err == nil {
				tBoot = now
			}
		}
		if !tBoot.IsZero() && fo.Status().AppliedPos >= target {
			id := nextID()
			root := rec.add(id, -1, "server.follower_catchup", since(t0), since(now))
			rec.add(id, root, "server.follower_bootstrap", since(t0), since(tBoot))
			rec.add(id, root, "server.follower_apply", since(tBoot), since(now))
			b.setLayer("repl.bootstrap_s", tBoot.Sub(t0).Seconds(), "s")
			b.setLayer("repl.apply_records_per_s", tailRecords/now.Sub(tBoot).Seconds(), "1/s")
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}
