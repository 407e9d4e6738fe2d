package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// toy is a workload small enough for a unit test: every request class and
// both codecs against a 70k-key filter, so one verification batch (64k
// keys) is answered with a chunked body.
var toy = workload{
	Name: "toy", Partitioning: "hash", Shards: 2, Keys: 70000, BitsPerKey: 16,
	RangeExp: 10, WALSync: "none", RecentKeys: 4, PreloadBatch: 1 << 14,
	Streams: []stream{
		{Kind: kindRead, Codec: codecBinary, Batch: 64, Rate: 300},
		{Kind: kindRange, Codec: codecJSON, Batch: 16, Rate: 100},
		{Kind: kindWrite, Codec: codecJSON, Batch: 8, Rate: 100},
	},
}

// inProcess serves a fresh registry over loopback HTTP and returns it as
// a daemon the benchmark can drive.
func inProcess(t *testing.T) *daemon {
	t.Helper()
	srv := httptest.NewServer(server.NewAPI(server.NewRegistry()))
	t.Cleanup(srv.Close)
	return &daemon{name: "in-process", addr: strings.TrimPrefix(srv.URL, "http://")}
}

func TestOpenLoopAgainstInProcessServer(t *testing.T) {
	d := inProcess(t)
	b := newBench(options{seed: 1}, toy, t.TempDir())
	if err := b.ctl.do("POST", d.url()+"/v1/filters", toy.createBody(), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.preload(d); err != nil {
		t.Fatal(err)
	}
	b.primary = d
	const dur = 300 * time.Millisecond
	b.acks.open = make([]atomic.Bool, 64)
	samples, err := b.lc.openLoop(context.Background(), d.addr, dur, b.workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.lc.failure(); err != nil {
		t.Fatalf("correctness failure: %v", err)
	}
	want := 0
	for _, s := range toy.Streams {
		want += int(dur.Seconds() * s.Rate)
	}
	if len(samples) != want {
		t.Fatalf("%d samples, want %d", len(samples), want)
	}
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if s.enq < s.due-int64(time.Millisecond) || s.done < s.sent || s.sent < s.enq {
			t.Fatalf("request %d has inconsistent times %+v", i, s)
		}
		if i > 0 && s.due < samples[i-1].due {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
	b.latencies(samples, make([]float64, 1))
	for _, k := range kindNames {
		if p50, p99 := b.layer[k+"_p50_ms"].Value, b.layer[k+"_p99_ms"].Value; !(p50 > 0 && p99 >= p50) {
			t.Errorf("%s: p50 %v, p99 %v", k, p50, p99)
		}
	}

	// Every preloaded and acked key answers true, over a chunked answer.
	n, err := b.verifyAcked(d)
	if err != nil {
		t.Fatal(err)
	}
	if acked := len(b.acks.snapshot()); acked == 0 || n != int(toy.Keys)+acked*8 {
		t.Errorf("verified %d keys with %d acked inserts", n, acked)
	}
}

func TestVerifyCatchesLostKeys(t *testing.T) {
	d := inProcess(t)
	b := newBench(options{seed: 1}, toy, t.TempDir())
	if err := b.ctl.do("POST", d.url()+"/v1/filters", toy.createBody(), nil); err != nil {
		t.Fatal(err)
	}
	// Nothing was preloaded, so the preload keys are "lost".
	_, err := b.verifyAcked(d)
	var gate *gateError
	if !errors.As(err, &gate) || !errors.Is(err, errFalseNegative) {
		t.Fatalf("verifyAcked on an empty filter = %v, want a false-negative gate error", err)
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	d := inProcess(t)
	b := newBench(options{seed: 2}, toy, t.TempDir())
	if err := b.ctl.do("POST", d.url()+"/v1/filters", toy.createBody(), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.preload(d); err != nil {
		t.Fatal(err)
	}
	samples, _ := b.lc.closedLoop(context.Background(), d.addr, phaseWarm, time.Minute, 50, b.workers)
	if len(samples) != 50 {
		t.Fatalf("%d samples, want exactly 50", len(samples))
	}
	for _, s := range samples {
		if !s.ok {
			t.Fatal("a warm-up request failed")
		}
	}
}
