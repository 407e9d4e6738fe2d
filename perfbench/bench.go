package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	// Crash cycles (a recovery and a fresh standby) repeat for at least
	// sampleTime and at least minSamples times: a single recovery or
	// catch-up differs by about a tenth from the next on the same files,
	// so a run takes many.
	sampleTime     = 6 * time.Second
	minSamples     = 11
	tailBatches    = 1000 // insert requests in one WAL tail
	tailBatch      = 256  // keys per WAL-tail insert
	warmupRequests = 400
	rssEvery       = 100 * time.Millisecond // resident-set sampling period
	healthPoll     = 250 * time.Microsecond // readiness polling period (a refused connect is cheap)
	catchupPoll    = time.Millisecond       // catch-up polling period (each poll is a status request)
	fprPoints      = 1 << 20                // absent keys probed for point_fpr
	fprRanges      = 1 << 16                // empty ranges probed for range_fpr
	verifyBatch    = 1 << 16                // keys per verification request
	// throughputWindow and latencyWindow are the sub-windows keys_per_s
	// and the latency p50s are taken over. Each window's figure is paired
	// with the CPU time the hypervisor stole in it, and the median over
	// the quietShare of windows with the least steal is reported: on a
	// shared host a window the neighbours stole from measures them, not
	// the program.
	throughputWindow = 250 * time.Millisecond
	latencyWindow    = 500 * time.Millisecond
	quietShare       = 1.0 / 3
	// lateLimit is the generator's own lateness (release time minus due
	// time) at p99 beyond which a run is invalid: the offered load was not
	// the scheduled one.
	lateLimit = 20 * time.Millisecond
)

type bench struct {
	opt     options
	w       workload
	in      inputs
	dir     string
	p       *procs
	ctl     *control
	acks    *ackLog
	lc      *loadClient
	workers []*worker
	primary *daemon
	dataDir string
	tails   uint64 // WAL-tail batches written so far

	attempted, failed int
	e2e, layer        map[string]metric
	notes             map[string]any // report-only figures (sample counts, checks)

	openSamples []sample
	snapWindows [][2]int64
	recs        []*recorder
}

func newBench(opt options, w workload, dir string) *bench {
	in := inputs{w: w, seed: opt.seed}
	acks := &ackLog{}
	b := &bench{
		opt: opt, w: w, in: in, dir: dir,
		p:    &procs{bin: opt.bloomrfd, dir: dir},
		ctl:  newControl(),
		acks: acks,
		lc:   newLoadClient(in, acks, opt.trace),
		e2e:  map[string]metric{}, layer: map[string]metric{}, notes: map[string]any{},
	}
	for i := 0; i < conns; i++ {
		b.workers = append(b.workers, newWorker())
	}
	return b
}

func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{finite(v), unit} }
func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{finite(v), unit}
}

// closeConns drops the load connections (after a server restart).
func (b *bench) closeConns() {
	for _, wk := range b.workers {
		wk.closeConn()
	}
}

func (b *bench) gate() error {
	if err := b.lc.failure(); err != nil {
		return &gateError{err}
	}
	return nil
}

// runE2E measures end to end (recording client spans when -trace 1):
// set-up, open loop, FPR probes, closed loop, crash recovery and standby
// catch-up.
func (b *bench) runE2E(ctx context.Context) error {
	if err := b.setup(ctx); err != nil {
		return err
	}
	dur := time.Duration(b.opt.seconds) * time.Second
	openDur, closedDur := dur*7/10, dur*3/10
	// A fixed number of warm-up requests, so the filter's contents after
	// the open loop depend on the seed alone.
	if _, _ = b.lc.closedLoop(ctx, b.primary.addr, phaseWarm, time.Minute, warmupRequests, b.workers); ctx.Err() != nil {
		return ctx.Err()
	}
	rss := startRSSSampler(b.primary)
	if err := b.openPhase(ctx, openDur); err != nil {
		rss.stop()
		return err
	}
	// The FPR probes run while the inserted set is still a function of the
	// seed; the closed loop inserts as many keys as it has time for.
	if err := b.fprPhase(ctx); err != nil {
		rss.stop()
		return err
	}
	if err := b.closedPhase(ctx, closedDur); err != nil {
		rss.stop()
		return err
	}
	b.setE2E("rss_mb", rss.stop(), "MiB")
	if err := b.gate(); err != nil {
		return err
	}
	hwm, err := b.primary.status("VmHWM:")
	if err != nil {
		return err
	}
	b.setLayer("server.vmhwm_mb", hwm, "MiB")
	return b.crashPhase(ctx)
}

// setup starts a primary, creates the filter and preloads it; it does so
// setupReps times on fresh data directories and keeps the last.
func (b *bench) setup(ctx context.Context) error {
	var times []float64
	for i := 0; i < setupReps; i++ {
		dataDir := filepath.Join(b.dir, fmt.Sprintf("data-%d", i))
		t0 := time.Now()
		d, err := b.p.start(ctx, "primary", "", b.w.serverFlags(dataDir, walSegmentBytes)...)
		if err != nil {
			return err
		}
		if err := b.ctl.do("POST", d.url()+"/v1/filters", b.w.createBody(), nil); err != nil {
			return fmt.Errorf("creating filter: %w", err)
		}
		if err := b.preload(d); err != nil {
			return fmt.Errorf("preloading: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			b.primary, b.dataDir = d, dataDir
			break
		}
		b.p.kill(d)
		b.closeConns()
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
	}
	b.notes["setup_s_each"] = times
	b.setE2E("setup_s", median(times), "s")
	return nil
}

// preload inserts the workload's preload keys in binary batches.
func (b *bench) preload(d *daemon) error {
	n := int((b.w.Keys + uint64(b.w.PreloadBatch) - 1) / uint64(b.w.PreloadBatch))
	return parallel(n, func(wi, i int) error {
		wk := b.workers[wi]
		lo := uint64(i) * uint64(b.w.PreloadBatch)
		keys := wk.req.keys[:0]
		for k := lo; k < min(lo+uint64(b.w.PreloadBatch), b.w.Keys); k++ {
			keys = append(keys, preloadKey(b.opt.seed, k))
		}
		wk.req.keys = keys
		wk.req.body = wire.AppendKeysRequest(wk.req.body[:0], wire.OpInsert, keys)
		return wk.post(d.addr, insertPath, wire.ContentType, wk.req.body)
	})
}

// openPhase runs the open-loop schedule, with explicit snapshots at fixed
// times when the workload asks for them, and derives latency, generator
// and server-phase figures from it.
func (b *bench) openPhase(ctx context.Context, dur time.Duration) error {
	ws := b.w.streamOf(kindWrite)
	b.acks.open = make([]atomic.Bool, int(dur.Seconds()*b.w.Streams[ws].Rate)+1)
	before, err := b.ctl.scrape(b.primary)
	if err != nil {
		return err
	}
	var snapErr error
	var winSteal []float64
	onStart := func(start time.Time) {
		var wg sync.WaitGroup
		if every := b.w.SnapshotEvery; every > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for at := start.Add(every); at.Before(start.Add(dur)); at = at.Add(every) {
					select {
					case <-time.After(time.Until(at)):
					case <-ctx.Done():
						return
					}
					t0 := time.Since(start).Nanoseconds()
					if err := b.ctl.do("POST", b.primary.url()+"/v1/filters/"+filterName+"/snapshot", nil, nil); err != nil && snapErr == nil {
						snapErr = fmt.Errorf("snapshot during the timed phase: %w", err)
					}
					b.snapWindows = append(b.snapWindows, [2]int64{t0, time.Since(start).Nanoseconds()})
				}
			}()
		}
		winSteal = stealWindows(ctx, start, latencyWindow, int(dur/latencyWindow))
		wg.Wait()
	}
	steal0 := cpuSteal()
	cpu0, err := b.primary.cpuSeconds()
	if err != nil {
		return err
	}
	samples, err := b.lc.openLoop(ctx, b.primary.addr, dur, b.workers, onStart)
	if err != nil {
		return err
	}
	cpu1, err := b.primary.cpuSeconds()
	if err != nil {
		return err
	}
	var items float64
	for _, s := range samples {
		if s.ok {
			items += float64(s.items)
		}
	}
	b.setE2E("cpu_ns_per_item", (cpu1-cpu0)*1e9/items, "ns")
	b.notes["open_loop_cpu_steal_frac"] = (cpuSteal() - steal0) / (dur.Seconds() * float64(runtime.NumCPU()))
	if snapErr != nil {
		return snapErr
	}
	after, err := b.ctl.scrape(b.primary)
	if err != nil {
		return err
	}
	b.openSamples = samples
	b.count(samples)

	b.latencies(samples, winSteal)

	// Generator lateness: how long after its due time the scheduler
	// released each request.
	var late []float64
	for _, s := range samples {
		late = append(late, float64(s.enq-s.due)/1e6)
	}
	lateP99 := quantile(late, 0.99)
	b.notes["gen_late_p50_ms"] = quantile(late, 0.50)
	var wait []float64
	for _, s := range samples {
		wait = append(wait, float64(s.sent-s.enq)/1e6)
	}
	b.notes["client_wait_p50_ms"] = quantile(wait, 0.50)
	b.notes["client_wait_p99_ms"] = quantile(wait, 0.99)
	b.setLayer("gen.late_p99_ms", lateP99, "ms")
	if lateP99 > float64(lateLimit)/1e6 {
		return fmt.Errorf("%w: p99 lateness %.2f ms exceeds %s", errLateGenerator, lateP99, lateLimit)
	}

	b.stallP99(samples)
	b.serverPhases(before, after, samples)
	if b.opt.trace {
		b.traceOverhead(samples)
	}
	return nil
}

// latencies reports each request class's p50 and p99 (per layer: see
// metrics.go), timed from the due time; a failed request counts
// as +Inf. The p50 is taken per latencyWindow of the schedule, and the
// median over the quietest windows (see quietShare) is reported; the p99
// is taken over the whole open loop.
func (b *bench) latencies(samples []sample, winSteal []float64) {
	nwin := len(winSteal)
	b.notes["latency_window_steal_frac"] = winSteal
	for k := kind(0); k < numKinds; k++ {
		wins := make([][]float64, nwin)
		var pooled []float64
		for _, s := range samples {
			if s.kind != k {
				continue
			}
			l := failedLatency
			if s.ok {
				l = float64(s.done-s.due) / 1e6
			}
			pooled = append(pooled, l)
			if w := int(time.Duration(s.due) / latencyWindow); w < nwin {
				wins[w] = append(wins[w], l)
			}
		}
		p50s := make([]float64, nwin)
		for w, ls := range wins {
			p50s[w] = quantile(ls, 0.50)
		}
		name := kindNames[k]
		b.setLayer(name+"_p50_ms", quietMedian(p50s, winSteal, quietShare), "ms")
		b.setLayer(name+"_p99_ms", quantile(pooled, 0.99), "ms")
		b.notes[name+"_samples"] = len(pooled)
		b.notes[name+"_p50_ms_per_window"] = p50s
		b.notes[name+"_p50_ms_pooled"] = quantile(pooled, 0.50)
	}
}

// stallP99 is the write p99 over writes in flight during a snapshot.
func (b *bench) stallP99(samples []sample) {
	var lat []float64
	for _, s := range samples {
		if s.kind != kindWrite {
			continue
		}
		for _, win := range b.snapWindows {
			if s.due < win[1] && s.done > win[0] {
				l := failedLatency
				if s.ok {
					l = float64(s.done-s.due) / 1e6
				}
				lat = append(lat, l)
				break
			}
		}
	}
	v := 0.0
	if len(lat) > 0 {
		v = quantile(lat, 0.99)
	}
	b.setLayer("store.stall_write_p99_ms", v, "ms")
	b.notes["stall_write_samples"] = len(lat)
}

// serverPhases turns the /metrics deltas over the open-loop phase into
// per-request phase means and reconciles them with the client's view.
func (b *bench) serverPhases(before, after metrics, samples []sample) {
	delta := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	filter := `filter="` + filterName + `"`
	reqs := delta("bloomrfd_filter_traced_requests_total", filter)
	if reqs <= 0 {
		reqs = math.NaN()
	}
	var phaseSum float64
	for p := 0; p < obs.NumPhases; p++ {
		name := obs.Phase(p).String()
		us := delta("bloomrfd_phase_seconds_sum", `phase="`+name+`"`) / reqs * 1e6
		phaseSum += us
		b.setLayer("server.phase."+name+"_us", us, "us")
	}
	unattr := delta("bloomrfd_filter_trace_unattributed_seconds_total", filter) / reqs * 1e6
	phaseSum += unattr
	b.setLayer("server.phase.unattributed_us", unattr, "us")
	b.setLayer("server.admission_rejected", after.sum("bloomrfd_admission_rejected_total"), "count")
	b.setLayer("store.snapshot_reused_shards", after.sum("bloomrfd_filter_snapshot_reused_shards", filter), "count")

	// The client's service time (written → answer read) of the same
	// requests; what the server's phases do not cover is transport.
	var rt []float64
	for _, s := range samples {
		if s.ok {
			rt = append(rt, float64(s.done-s.sent)/1e3)
		}
	}
	client := mean(rt)
	b.setLayer("trace.client_service_us", client, "us")
	b.setLayer("trace.server_total_us", phaseSum, "us")
	b.setLayer("trace.reconcile_ratio", phaseSum/client, "ratio")
	b.setLayer("http.overhead_us", client-phaseSum, "us")
	b.notes["server_traced_requests"] = reqs
	b.notes["client_ok_requests"] = len(rt)
}

// traceOverhead compares the traced and untraced requests (every other
// one of each stream) of the same open-loop run, times the span recording
// itself, and aggregates span self times.
func (b *bench) traceOverhead(samples []sample) {
	var traced, plain, record []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		l := float64(s.done-s.due) / 1e3
		if s.traced {
			traced = append(traced, l)
			record = append(record, float64(s.recordNs)/1e3)
		} else {
			plain = append(plain, l)
		}
	}
	b.setLayer("trace.overhead_us", mean(traced)-mean(plain), "us")
	b.setLayer("trace.record_us", mean(record), "us")
	for _, wk := range b.workers {
		b.recs = append(b.recs, &wk.rec)
	}
	st := selfTimes(b.recs)
	for _, name := range []string{"client.queue", "client.build", "http.roundtrip", "client.verify"} {
		s := st[name]
		v := 0.0
		if s.Count > 0 {
			v = float64(s.SelfNs) / float64(s.Count) / 1e3
		}
		b.setLayer(name+"_us", v, "us")
	}
}

// count adds a phase's requests to the attempted/failed totals.
func (b *bench) count(samples []sample) {
	for _, s := range samples {
		b.attempted++
		if !s.ok {
			b.failed++
		}
	}
}

// closedPhase saturates the server with the workload's own mix.
func (b *bench) closedPhase(ctx context.Context, dur time.Duration) error {
	stealc := make(chan []float64, 1)
	start := time.Now()
	go func() { stealc <- stealWindows(ctx, start, throughputWindow, int(dur/throughputWindow)) }()
	samples, elapsed := b.lc.closedLoop(ctx, b.primary.addr, phaseClosed, dur, 0, b.workers)
	steal := <-stealc
	if err := ctx.Err(); err != nil {
		return err
	}
	b.count(samples)
	var items float64
	for _, s := range samples {
		if s.ok {
			items += float64(s.items)
		}
	}
	nwin := min(int(elapsed/throughputWindow), len(steal))
	perWin := make([]float64, nwin)
	for _, s := range samples {
		if i := int(time.Duration(s.done) / throughputWindow); s.ok && i < nwin {
			perWin[i] += float64(s.items)
		}
	}
	for i := range perWin {
		perWin[i] /= throughputWindow.Seconds()
	}
	keysPerS := quietMedian(perWin, steal[:nwin], quietShare)
	b.notes["keys_per_s_mean"] = items / elapsed.Seconds()
	b.notes["keys_per_s_per_window"] = perWin
	b.notes["keys_per_s_window_steal_frac"] = steal[:nwin]
	b.setLayer("keys_per_s", keysPerS, "1/s")
	// The open loop's offered load as a share of this closed-loop
	// capacity, on the same mix.
	var offered float64
	for _, st := range b.w.Streams {
		offered += st.Rate * float64(st.Batch)
	}
	b.notes["open_loop_items_per_s"] = offered
	b.notes["open_loop_share_of_capacity"] = offered / keysPerS
	b.setE2E("ok_frac", 1-float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	b.notes["closed_requests"] = len(samples)
	return nil
}

// fprPhase probes fixed, seeded sets of absent keys and empty ranges.
func (b *bench) fprPhase(ctx context.Context) error {
	rg := newRNG(b.opt.seed, saltFPR, 0)
	keys := make([]uint64, fprPoints)
	for i := range keys {
		keys[i] = absentKey(&rg)
	}
	pos, err := b.countPositives(queryPath, len(keys)/verifyBatch, func(i int, dst []byte) []byte {
		return wire.AppendKeysRequest(dst, wire.OpQuery, keys[i*verifyBatch:(i+1)*verifyBatch])
	})
	if err != nil {
		return err
	}
	b.setE2E("point_fpr", float64(pos)/float64(len(keys)), "ratio")
	ranges := make([][2]uint64, fprRanges)
	for i := range ranges {
		ranges[i] = emptyRange(&rg, width(&rg, b.w.RangeExp))
	}
	const per = 1 << 12
	pos, err = b.countPositives(rangePath, len(ranges)/per, func(i int, dst []byte) []byte {
		return wire.AppendRangesRequest(dst, ranges[i*per:(i+1)*per])
	})
	if err != nil {
		return err
	}
	b.setE2E("range_fpr", float64(pos)/float64(len(ranges)), "ratio")
	return nil
}

// countPositives sends n binary query batches and counts true verdicts.
func (b *bench) countPositives(path string, n int, body func(i int, dst []byte) []byte) (int, error) {
	var counts [conns]int
	err := parallel(n, func(wi, i int) error {
		wk := b.workers[wi]
		wk.req.body = body(i, wk.req.body[:0])
		if err := wk.post(b.primary.addr, path, wire.ContentType, wk.req.body); err != nil {
			return err
		}
		var err error
		if wk.verdicts, err = decodeVerdicts(wire.ContentType, wk.resp.Bytes(), wk.verdicts[:0]); err != nil {
			return err
		}
		for _, v := range wk.verdicts {
			if v {
				counts[wi]++
			}
		}
		return nil
	})
	return counts[0] + counts[1], err
}

// restartGracefully stops the primary with SIGTERM — its final snapshot
// truncates the WAL behind it — and starts it again.
func (b *bench) restartGracefully(ctx context.Context) error {
	addr := b.primary.addr
	b.p.stop(b.primary)
	b.closeConns()
	d, err := b.p.start(ctx, "primary", addr, b.w.serverFlags(b.dataDir, recoverySegmentBytes)...)
	if err != nil {
		return fmt.Errorf("restart after SIGTERM: %w", err)
	}
	b.primary = d
	return nil
}

// rssSampler samples the primary's resident set while the load runs.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startRSSSampler(d *daemon) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var xs []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if v, err := d.status("VmRSS:"); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-t.C:
			case <-r.stopc:
				r.done <- xs
				return
			}
		}
	}()
	return r
}

// stop ends sampling and returns the median resident set in MiB.
func (r *rssSampler) stop() float64 {
	close(r.stopc)
	return median(<-r.done)
}

// crashPhase times crash recovery and standby catch-up on one fixed log.
// Two rounds of a graceful restart (its final snapshot truncates the WAL
// behind it) and a WAL tail of tailBatches inserts leave a log of small
// segments holding one tail past the snapshot; the first round moves the
// log off the timed phase's large segments. The data directory is then
// fsynced, so no writeback of the tail overlaps a timed restart. Each
// cycle then kills the primary with SIGKILL and restarts it on the same
// files, timed from exec to healthy (a restart takes no snapshot and adds
// no inserts, so every one restores the same snapshot and replays the
// same tail), and attaches a fresh standby to it, timed from exec to
// caught up (connected, zero lag, applied through the primary's log end).
// A standby follows a primary restarted in the same cycle, so no one
// process serves every standby of a run. Cycles repeat for sampleTime and
// at least minSamples times. Each sample is paired with the share of the
// machine's CPU time the hypervisor stole while it ran, and recovery_s and
// catchup_s are medians over the quietest samples, as for the latency
// windows (see quietShare). The last primary and the last standby must
// answer true for every acked key.
func (b *bench) crashPhase(ctx context.Context) error {
	for i := 0; i < 2; i++ {
		if err := b.restartGracefully(ctx); err != nil {
			return err
		}
		if err := b.writeTail(); err != nil {
			return err
		}
	}
	if err := syncTree(b.dataDir); err != nil {
		return err
	}
	var recovery, catchup, recoverySteal, catchupSteal []float64
	var standby *daemon
	for start := time.Now(); len(recovery) < minSamples || time.Since(start) < sampleTime; {
		if standby != nil {
			b.p.kill(standby)
		}
		addr := b.primary.addr
		b.p.kill(b.primary)
		b.closeConns()
		t0, steal0 := time.Now(), cpuSteal()
		d, err := b.p.start(ctx, "primary", addr, b.w.serverFlags(b.dataDir, recoverySegmentBytes)...)
		if err != nil {
			return fmt.Errorf("restart after kill -9: %w", err)
		}
		recovery = append(recovery, time.Since(t0).Seconds())
		recoverySteal = append(recoverySteal, stealShare(steal0, t0))
		b.primary = d

		var st struct {
			WAL struct {
				End uint64 `json:"end_pos"`
			} `json:"wal"`
		}
		if err := b.ctl.do("GET", b.primary.url()+"/v1/replication/status", nil, &st); err != nil {
			return err
		}
		t0, steal0 = time.Now(), cpuSteal()
		if standby, err = b.p.start(ctx, fmt.Sprintf("standby-%d", len(catchup)), "", "-follow", b.primary.url()); err != nil {
			return err
		}
		if err := b.waitCaughtUp(ctx, standby, st.WAL.End); err != nil {
			return err
		}
		catchup = append(catchup, time.Since(t0).Seconds())
		catchupSteal = append(catchupSteal, stealShare(steal0, t0))
	}
	b.notes["recovery_s_each"] = recovery
	b.notes["recovery_s_steal_frac"] = recoverySteal
	b.notes["recovery_s_pooled"] = median(append([]float64(nil), recovery...))
	b.notes["catchup_s_each"] = catchup
	b.notes["catchup_s_steal_frac"] = catchupSteal
	b.notes["catchup_s_pooled"] = median(append([]float64(nil), catchup...))
	b.setE2E("recovery_s", quietMedian(recovery, recoverySteal, quietShare), "s")
	b.setE2E("catchup_s", quietMedian(catchup, catchupSteal, quietShare), "s")
	t0 := time.Now()
	n, err := b.verifyAcked(b.primary)
	b.notes["recovered_keys_verified"] = n
	b.notes["verify_s"] = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	n, err = b.verifyAcked(standby)
	b.notes["standby_keys_verified"] = n
	if err != nil {
		return err
	}
	b.p.kill(standby)
	return nil
}

// syncTree fsyncs every regular file under dir.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// writeTail inserts one fixed-size batch sequence that only the WAL holds.
func (b *bench) writeTail() error {
	cycle := b.tails
	err := parallel(tailBatches, func(wi, i int) error {
		wk := b.workers[wi]
		keys := wk.req.keys[:0]
		for j := 0; j < tailBatch; j++ {
			keys = append(keys, b.in.tailKey(cycle, uint64(i*tailBatch+j)))
		}
		wk.req.keys = keys
		wk.req.body = wire.AppendKeysRequest(wk.req.body[:0], wire.OpInsert, keys)
		return wk.post(b.primary.addr, insertPath, wire.ContentType, wk.req.body)
	})
	if err != nil {
		return fmt.Errorf("writing the WAL tail: %w", err)
	}
	b.tails++
	return nil
}

func (b *bench) waitCaughtUp(ctx context.Context, d *daemon, target uint64) error {
	var st struct {
		Replication struct {
			Connected bool   `json:"connected"`
			Applied   uint64 `json:"applied_pos"`
			Lag       uint64 `json:"lag_bytes"`
		} `json:"replication"`
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.ctl.do("GET", d.url()+"/v1/replication/status", nil, &st); err != nil {
			return err
		}
		r := st.Replication
		if r.Connected && r.Applied >= target && r.Lag == 0 {
			return nil
		}
		sleepUntil(time.Now().Add(catchupPoll))
	}
	return errors.New("standby did not catch up within 120s")
}

// verifyAcked queries every acknowledged key — preload, acked inserts and
// WAL tails — and fails the run on any false answer.
func (b *bench) verifyAcked(d *daemon) (int, error) {
	batch := b.w.Streams[b.w.streamOf(kindWrite)].Batch
	var extra []uint64
	for _, ref := range b.acks.snapshot() {
		for j := 0; j < batch; j++ {
			extra = append(extra, b.in.writeKey(ref, uint64(j)))
		}
	}
	for c := uint64(0); c < b.tails; c++ {
		for j := 0; j < tailBatches*tailBatch; j++ {
			extra = append(extra, b.in.tailKey(c, uint64(j)))
		}
	}
	preChunks := int((b.w.Keys + verifyBatch - 1) / verifyBatch)
	extraChunks := (len(extra) + verifyBatch - 1) / verifyBatch
	err := parallel(preChunks+extraChunks, func(wi, i int) error {
		wk := b.workers[wi]
		keys := wk.req.keys[:0]
		if i < preChunks {
			lo := uint64(i) * verifyBatch
			for k := lo; k < min(lo+verifyBatch, b.w.Keys); k++ {
				keys = append(keys, preloadKey(b.opt.seed, k))
			}
		} else {
			lo := (i - preChunks) * verifyBatch
			keys = append(keys, extra[lo:min(lo+verifyBatch, len(extra))]...)
		}
		wk.req.keys = keys
		wk.req.body = wire.AppendKeysRequest(wk.req.body[:0], wire.OpQuery, keys)
		if err := wk.post(d.addr, queryPath, wire.ContentType, wk.req.body); err != nil {
			return err
		}
		var err error
		if wk.verdicts, err = decodeVerdicts(wire.ContentType, wk.resp.Bytes(), wk.verdicts[:0]); err != nil {
			return err
		}
		if len(wk.verdicts) != len(keys) {
			return fmt.Errorf("answer has %d verdicts for %d keys", len(wk.verdicts), len(keys))
		}
		for j, v := range wk.verdicts {
			if !v {
				return &gateError{fmt.Errorf("%w: acked key %d answered false on %s", errFalseNegative, keys[j], d.name)}
			}
		}
		return nil
	})
	return int(b.w.Keys) + len(extra), err
}

// printReport writes a human-readable summary to standard error.
func (b *bench) printReport(h hostInfo) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench %s seed=%d seconds=%d trace=%v on %q (%d CPUs, %d MiB, overcommit %s, %s, commit %s, source %s)\n",
		h.Workload, h.Seed, h.RunSeconds, h.Trace, h.CPUModel, h.NProc, h.MemTotalMB, h.Overcommit, h.GoVersion, h.Commit, h.SourceDigest)
	for _, set := range []map[string]metric{b.e2e, b.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "  %-34s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	keys := make([]string, 0, len(b.notes))
	for k := range b.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-34s %v\n", k, b.notes[k])
	}
	fmt.Fprint(os.Stderr, sb.String())
}

// writeReport saves the full report (host block, every metric, notes) and,
// for traced runs, the spans.
func (b *bench) writeReport(h hostInfo, res *result) error {
	base := filepath.Join(b.opt.results, fmt.Sprintf("%s-seed%d-trace%v", b.w.Name, b.opt.seed, b.opt.trace))
	rep, err := json.MarshalIndent(map[string]any{
		"host": h, "result": res, "end_to_end": b.e2e, "per_layer": b.layer, "notes": b.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rep, 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if err := writeSamples(base+".samples.csv", b.openSamples); err != nil {
		return err
	}
	if b.opt.trace {
		return writeSpans(base+".spans.jsonl", b.recs)
	}
	return nil
}

// writeSamples saves the open-loop request timings (nanoseconds from the
// phase start) for offline analysis.
func writeSamples(path string, samples []sample) error {
	var sb strings.Builder
	sb.WriteString("kind,due_ns,released_ns,sent_ns,done_ns,ok\n")
	for _, s := range samples {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d,%v\n", kindNames[s.kind], s.due, s.enq, s.sent, s.done, s.ok)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("writing samples: %w", err)
	}
	return nil
}
