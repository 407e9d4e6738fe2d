package main

import (
	"fmt"
	"strconv"
	"time"
)

type codec int

const (
	codecBinary codec = iota
	codecJSON
)

// kind is a request class; each has its own latency metrics.
type kind int

const (
	kindRead  kind = iota // point-query batch
	kindRange             // range-query batch
	kindWrite             // insert batch
	numKinds
)

var kindNames = [numKinds]string{"read", "range", "write"}

// stream is one open-loop request stream: a request class at a fixed rate.
type stream struct {
	Kind  kind
	Codec codec
	Batch int     // keys or ranges per request
	Rate  float64 // open-loop requests per second
}

// workload is one traffic mix against one filter configuration. Sizes and
// rates are fixed here; only the seed varies between runs.
type workload struct {
	Name         string
	Partitioning string
	Shards       int
	Keys         uint64 // preloaded keys
	BitsPerKey   float64
	MaxRange     uint64 // create-time max_range; 0 builds basic filters
	RangeExp     int    // range widths are log-uniform over 2^0..2^RangeExp
	WALSync      string // -wal-sync policy
	// SnapshotEvery triggers a snapshot at this period during the open
	// loop (0: none).
	SnapshotEvery time.Duration
	Streams       []stream
	RecentKeys    int // read-your-writes keys per read batch (open loop)
	PreloadBatch  int // keys per preload request
}

// workloads are the benchmark's traffic mixes. Every mix carries all three
// request classes so that every end-to-end metric exists on every
// workload. The first stream (both first streams in durable-mix) is the
// one the workload is built around; the others run at 100 requests/s, the
// least that still gives their p50 enough samples in every latency window.
var workloads = []workload{
	{
		// The core probe dominates: a 64 MiB hash-partitioned filter, 16×
		// the 4 MiB of L2 on the reference host, probed with binary point
		// batches. No JSON; no snapshots during the timed phase; the WAL
		// only sees the light write stream, never fsynced (-wal-sync none).
		Name: "point-large-bin", Partitioning: "hash", Shards: 4,
		Keys: 32 << 20, BitsPerKey: 16, RangeExp: 14, WALSync: "none",
		Streams: []stream{
			{Kind: kindRead, Codec: codecBinary, Batch: 1024, Rate: 1000},
			{Kind: kindRange, Codec: codecBinary, Batch: 64, Rate: 100},
			{Kind: kindWrite, Codec: codecBinary, Batch: 256, Rate: 100},
		},
		PreloadBatch: 1 << 16,
	},
	{
		// The JSON codec dominates: a cache-resident (2 MiB) range-
		// partitioned filter tuned for ranges up to 2^30, queried with
		// JSON range batches, so the range lookup path replaces the point
		// path and a gain that only helps large filters shows no change.
		Name: "range-small-json", Partitioning: "range", Shards: 4,
		Keys: 1 << 20, BitsPerKey: 16, MaxRange: 1 << 30, RangeExp: 30, WALSync: "none",
		Streams: []stream{
			{Kind: kindRange, Codec: codecJSON, Batch: 256, Rate: 500},
			{Kind: kindRead, Codec: codecJSON, Batch: 64, Rate: 100},
			{Kind: kindWrite, Codec: codecJSON, Batch: 16, Rate: 100},
		},
		PreloadBatch: 1 << 16,
	},
	{
		// The durable write path dominates: every insert is fsynced before
		// its ack, snapshots run during the timed phase, and reads (which
		// include recently acked keys) share shard locks with the writes.
		Name: "durable-mix", Partitioning: "hash", Shards: 4,
		Keys: 4 << 20, BitsPerKey: 16, RangeExp: 14, WALSync: "always", SnapshotEvery: 500 * time.Millisecond,
		Streams: []stream{
			{Kind: kindWrite, Codec: codecBinary, Batch: 256, Rate: 500},
			{Kind: kindRead, Codec: codecBinary, Batch: 1024, Rate: 500},
			{Kind: kindRange, Codec: codecBinary, Batch: 64, Rate: 100},
		},
		RecentKeys: 32, PreloadBatch: 1 << 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// createBody is the filter-create request for the workload.
func (w workload) createBody() []byte {
	return []byte(`{"name":"` + filterName + `","expected_keys":` + strconv.FormatUint(w.Keys, 10) +
		`,"bits_per_key":` + strconv.FormatFloat(w.BitsPerKey, 'f', -1, 64) +
		`,"max_range":` + strconv.FormatUint(w.MaxRange, 10) +
		`,"shards":` + strconv.Itoa(w.Shards) + `,"partitioning":"` + w.Partitioning + `"}`)
}

// serverFlags are the bloomrfd flags of a primary for this workload.
func (w workload) serverFlags(dataDir string, segmentBytes int) []string {
	return []string{
		"-data-dir", dataDir, "-wal-sync", w.WALSync, "-snapshot-interval", "0",
		"-wal-segment-bytes", strconv.Itoa(segmentBytes),
		"-max-inflight-batches", strconv.Itoa(maxInflight),
	}
}

// streamOf returns the index of the workload's stream of kind k, or -1.
func (w workload) streamOf(k kind) int {
	for i, s := range w.Streams {
		if s.Kind == k {
			return i
		}
	}
	return -1
}

// Phases of a run; each draws its own inputs.
type phase uint64

const (
	phaseWarm phase = iota + 1
	phaseOpen
	phaseClosed
)

const (
	filterName = "bench"
	insertPath = "/v1/filters/" + filterName + "/insert"
	queryPath  = "/v1/filters/" + filterName + "/query"
	rangePath  = "/v1/filters/" + filterName + "/query-range"
	// maxInflight arms admission control well above the client's two
	// connections, so shedding is on the request path but never fires
	// unless the server misbehaves.
	maxInflight = 8
	// walSegmentBytes is the WAL segment size through the timed phase.
	// Sealing a segment fsyncs it, which stalls appends, so segments are
	// large enough that the timed phase seals at most about one.
	walSegmentBytes = 16 << 20
	// recoverySegmentBytes is the segment size from the crash cycles on:
	// truncation behind a snapshot keeps the active segment, so small
	// segments leave each recovery and catch-up the same short log to
	// replay — the tail — whatever the timed phase wrote.
	recoverySegmentBytes = 1 << 20
	// rywLag is how long before a read's due time a write must have been
	// due for its keys to be eligible as read-your-writes probes.
	rywLag = 20 * time.Millisecond
	// rywWindow is how many of the most recent eligible writes a
	// read-your-writes key is drawn from.
	rywWindow = 50
)
