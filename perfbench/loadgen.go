package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator. It lives in the benchmark, runs in this one process
// and never holds more than `conns` connections to the server. Open loop:
// a scheduler releases each request at its due time to its stream's
// connection — the workload's main stream has a connection of its own, the
// other streams share the second — and a request's latency runs from its
// due time, so a stall also charges every request queued behind it on its
// connection. Keeping the main stream apart means, for example, that reads
// queue behind a stalled insert only if the server makes them. Closed
// loop: each worker sends its next request as soon as the previous answer
// is in.

// conns is the number of load connections: the reference host's nproc.
const conns = 2

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 60 * time.Second

// sample is the timing of one request, in nanoseconds from the phase
// start.
type sample struct {
	kind           kind
	due, enq, sent int64 // scheduled, released by the scheduler, written
	done           int64
	items          int32
	ok             bool
	traced         bool
	recordNs       int64 // time spent recording the request's spans
}

// loadClient sends generated load; each worker owns one connection.
type loadClient struct {
	in    inputs
	acks  *ackLog
	fail  atomic.Pointer[error] // first correctness failure
	trace bool
}

func newLoadClient(in inputs, acks *ackLog, trace bool) *loadClient {
	return &loadClient{in: in, acks: acks, trace: trace}
}

func (lc *loadClient) setFailure(err error) {
	lc.fail.CompareAndSwap(nil, &err)
}

func (lc *loadClient) failure() error {
	if p := lc.fail.Load(); p != nil {
		return *p
	}
	return nil
}

// worker is one load connection with its reusable buffers and span
// recorder. Its client is the standard library's keep-alive HTTP/1.1
// transport, limited to one connection so that each worker's requests
// queue on a connection of their own.
type worker struct {
	client   *http.Client
	req      request
	verdicts []bool
	resp     bytes.Buffer
	rywMust  []int
	rec      recorder
}

func newWorker() *worker {
	return &worker{client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// closeConn drops the worker's idle connection (after a server restart).
func (w *worker) closeConn() { w.client.CloseIdleConnections() }

// roundTrip sends one POST and reads the answer body into w.resp. It
// returns the status code and the answer's Content-Type.
func (w *worker) roundTrip(addr, path, ctype string, body []byte) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	w.resp.Reset()
	if _, err := w.resp.ReadFrom(resp.Body); err != nil {
		return 0, "", fmt.Errorf("reading answer: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), nil
}

// send executes one request and fills s. It never returns an error: a
// transport failure or non-200 status marks the sample failed, and a wrong
// answer is recorded as the client's correctness failure.
func (lc *loadClient) send(w *worker, addr string, ph phase, j job, s *sample, start time.Time) {
	pick := time.Now()
	r := &w.req
	lc.in.build(r, ph, j)
	w.rywMust = w.rywMust[:0]
	for i, idx := range r.rywRefs {
		if idx >= 0 && int(idx) < len(lc.acks.open) && lc.acks.open[idx].Load() {
			w.rywMust = append(w.rywMust, r.ryw[i])
		}
	}
	s.kind, s.items = r.kind, int32(r.items)
	sent := time.Now()
	s.sent = sent.Sub(start).Nanoseconds()
	status, rtype, err := w.roundTrip(addr, r.path, r.ctype, r.body)
	recv := time.Now()
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %.200s", status, w.resp.Bytes())
	}
	if err == nil {
		switch r.kind {
		case kindWrite:
			lc.acks.add(r.ref)
		default:
			w.verdicts, err = checkVerdicts(r, rtype, w.resp.Bytes(), w.verdicts, w.rywMust)
			if err != nil {
				lc.setFailure(err)
			}
		}
	}
	done := time.Now()
	s.ok = err == nil
	if lc.trace && j.index%2 == 0 && err == nil {
		// Every other request of each stream is traced, so the traced and
		// untraced means of one run, over the same request mix, give the
		// tracing overhead. The request ends after its spans are recorded,
		// so that cost is part of a traced request's own latency.
		s.traced = true
		id := uint64(ph)<<48 | uint64(j.seq)
		root := w.rec.add(id, -1, "request."+kindNames[r.kind], since(start)+s.due, since(done))
		w.rec.add(id, root, "client.queue", since(start)+s.due, since(pick))
		w.rec.add(id, root, "client.build", since(pick), since(sent))
		w.rec.add(id, root, "http.roundtrip", since(sent), since(recv))
		w.rec.add(id, root, "client.verify", since(recv), since(done))
	}
	s.done = time.Since(start).Nanoseconds()
	s.recordNs = s.done - done.Sub(start).Nanoseconds()
}

// openLoop runs the workload's streams on their fixed schedule for dur.
// onStart, when non-nil, runs concurrently with the phase and gets its
// start time (the snapshot schedule uses it).
func (lc *loadClient) openLoop(ctx context.Context, addr string, dur time.Duration, workers []*worker, onStart func(time.Time)) ([]sample, error) {
	w := lc.in.w
	var jobs []job
	for si, s := range w.Streams {
		n := int(dur.Seconds() * s.Rate)
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{stream: si, index: uint64(i), due: lc.in.dueTime(si, uint64(i))})
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
	for i := range jobs {
		jobs[i].seq = i
	}
	samples := make([]sample, len(jobs))
	// Each queue is sized to the whole schedule, so the scheduler never
	// blocks on a busy server: queueing shows up as latency, not as a late
	// generator.
	queues := make([]chan job, len(workers))
	for i := range queues {
		queues[i] = make(chan job, len(jobs))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(wk *worker, queue chan job) {
			defer wg.Done()
			for j := range queue {
				s := &samples[j.seq]
				s.due = j.due.Nanoseconds()
				lc.send(wk, addr, phaseOpen, j, s, start)
			}
		}(wk, queues[i])
	}
	if onStart != nil {
		wg.Add(1)
		go func() { defer wg.Done(); onStart(start) }()
	}
	// The scheduler sleeps with nanosleep on its own thread: the runtime's
	// timers wake up to a millisecond late on Linux, which would add up to
	// a millisecond to every latency measured from the due time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, j := range jobs {
		sleepUntil(start.Add(j.due))
		if ctx.Err() != nil {
			break
		}
		samples[j.seq].enq = time.Since(start).Nanoseconds()
		queues[min(j.stream, len(queues)-1)] <- j
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop has every worker send back-to-back, in the mix the stream
// rates define, for dur or until `limit` requests have been sent (limit 0
// means no limit), and returns the samples.
func (lc *loadClient) closedLoop(ctx context.Context, addr string, ph phase, dur time.Duration, limit int64, workers []*worker) ([]sample, time.Duration) {
	pattern := mixPattern(lc.in.w)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, len(workers))
	var wg sync.WaitGroup
	for wi, wk := range workers {
		wg.Add(1)
		go func(wi int, wk *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n := next.Add(1) - 1
				if limit > 0 && n >= limit {
					return
				}
				j := pattern.job(n)
				s := sample{due: time.Since(start).Nanoseconds()}
				lc.send(wk, addr, ph, j, &s, start)
				per[wi] = append(per[wi], s)
			}
		}(wi, wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// pattern maps the n-th closed-loop request to a stream and a per-stream
// index, independently of which worker sends it.
type pattern struct {
	streams []int // one period of stream ids
	count   []int // requests per stream in one period
}

// mixPattern builds one period of the workload's mix, in proportion to
// the stream rates (rates are multiples of 100 requests/s).
func mixPattern(w workload) pattern {
	var p pattern
	p.count = make([]int, len(w.Streams))
	for i, s := range w.Streams {
		p.count[i] = max(1, int(s.Rate/100))
	}
	// Smooth weighted round robin: interleave rather than bunch.
	cur := make([]int, len(w.Streams))
	total := 0
	for _, c := range p.count {
		total += c
	}
	for k := 0; k < total; k++ {
		best := 0
		for i := range cur {
			cur[i] += p.count[i]
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		p.streams = append(p.streams, best)
	}
	return p
}

func (p pattern) job(n int64) job {
	period := int64(len(p.streams))
	cycle, pos := n/period, int(n%period)
	s := p.streams[pos]
	rank := 0
	for _, x := range p.streams[:pos] {
		if x == s {
			rank++
		}
	}
	return job{seq: int(n), stream: s, index: uint64(cycle)*uint64(p.count[s]) + uint64(rank)}
}

// post sends a request on a worker's connection (preload, WAL tail and
// verification traffic) and fails on any status but 200.
func (w *worker) post(addr, path, ctype string, body []byte) error {
	status, _, err := w.roundTrip(addr, path, ctype, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("POST %s: status %d: %.200s", path, status, bytes.TrimSpace(w.resp.Bytes()))
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on `conns` goroutines and returns
// the first error.
func parallel(n int, fn func(worker, i int) error) error {
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for wi := 0; wi < conns; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(wi, i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	return first
}

var errLateGenerator = errors.New("the load generator fell behind its schedule")
