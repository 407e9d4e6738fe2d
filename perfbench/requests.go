package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// job names one request of a phase; its contents are derived from it.
type job struct {
	seq    int           // position in the phase's sample slice
	stream int           // index into workload.Streams
	index  uint64        // position within the stream for this phase
	due    time.Duration // scheduled send time, from the phase start
}

// writeRef names one insert batch: which phase and which position in the
// write stream. Its keys are regenerated from it, never stored.
type writeRef struct {
	ph    phase
	index uint64
}

// inputs derives request contents from (seed, phase, stream, index).
type inputs struct {
	w    workload
	seed int64
}

func (in inputs) writeKey(ref writeRef, j uint64) uint64 {
	b := uint64(in.w.Streams[in.w.streamOf(kindWrite)].Batch)
	return storedKey(in.seed, saltWrite+uint64(ref.ph)*0x100000001b3, ref.index*b+j)
}

func (in inputs) tailKey(cycle, j uint64) uint64 {
	return storedKey(in.seed, saltTail+cycle*0x100000001b3, j)
}

// request is a built request plus what its answer is checked against.
type request struct {
	kind     kind
	path     string
	ctype    string
	body     []byte
	items    int
	mustTrue int     // leading items that must answer true
	ryw      []int   // further items that must answer true if their write was acked
	rywRefs  []int64 // open-loop write index behind each ryw item
	keys     []uint64
	ranges   [][2]uint64
	ref      writeRef // for writes
}

// build fills r for job j of phase ph. Buffers in r are reused.
func (in inputs) build(r *request, ph phase, j job) {
	s := in.w.Streams[j.stream]
	rg := newRNG(in.seed, saltRead+uint64(ph)<<48+uint64(j.stream)<<40, j.index)
	r.kind, r.items, r.mustTrue = s.Kind, s.Batch, 0
	r.ryw, r.rywRefs = r.ryw[:0], r.rywRefs[:0]
	r.ctype = "application/json"
	if s.Codec == codecBinary {
		r.ctype = wire.ContentType
	}
	switch s.Kind {
	case kindRead:
		r.path = queryPath
		r.keys = r.keys[:0]
		half := s.Batch / 2
		for i := 0; i < half; i++ {
			r.keys = append(r.keys, preloadKey(in.seed, rg.below(in.w.Keys)))
		}
		r.mustTrue = half
		if ph == phaseOpen && in.w.RecentKeys > 0 {
			in.addRecent(r, &rg, j.due)
		}
		for i := len(r.keys); i < s.Batch; i++ {
			r.keys = append(r.keys, absentKey(&rg))
		}
		r.body = encodeKeys(r.body[:0], s.Codec, wire.OpQuery, r.keys)
	case kindRange:
		r.path = rangePath
		r.ranges = r.ranges[:0]
		half := s.Batch / 2
		for i := 0; i < half; i++ {
			k := preloadKey(in.seed, rg.below(in.w.Keys))
			r.ranges = append(r.ranges, coveringRange(&rg, k, width(&rg, in.w.RangeExp)))
		}
		for i := half; i < s.Batch; i++ {
			r.ranges = append(r.ranges, emptyRange(&rg, width(&rg, in.w.RangeExp)))
		}
		r.mustTrue = half
		r.body = encodeRanges(r.body[:0], s.Codec, r.ranges)
	case kindWrite:
		r.path = insertPath
		r.ref = writeRef{ph: ph, index: j.index}
		r.keys = r.keys[:0]
		for i := 0; i < s.Batch; i++ {
			r.keys = append(r.keys, in.writeKey(r.ref, uint64(i)))
		}
		r.body = encodeKeys(r.body[:0], s.Codec, wire.OpInsert, r.keys)
	}
}

// addRecent appends read-your-writes probes: keys of open-loop writes that
// were due at least rywLag before this read (write i is due within
// [i, i+1)/rate). Whether each write was acked before the read is sent is
// only known at send time.
func (in inputs) addRecent(r *request, rg *rng, due time.Duration) {
	ws := in.w.streamOf(kindWrite)
	s := in.w.Streams[ws]
	last := int64((due-rywLag).Seconds()*s.Rate) - 1
	if last < 0 {
		return
	}
	window := uint64(min(int64(rywWindow), last+1))
	for i := 0; i < in.w.RecentKeys; i++ {
		idx := last - int64(rg.below(window))
		r.ryw = append(r.ryw, len(r.keys))
		r.rywRefs = append(r.rywRefs, idx)
		r.keys = append(r.keys, in.writeKey(writeRef{ph: phaseOpen, index: uint64(idx)}, rg.below(uint64(s.Batch))))
	}
}

// dueTime is when stream s's i-th open-loop request is due, from the phase
// start: at a uniformly drawn point of its 1/rate slot. Fixed-rate streams
// lock into one phase relation, and then which requests overlap — and so
// their latency — hangs on that relation; random points within the slots
// average over overlaps while keeping the rate exact. The draw is a
// function of the seed alone.
func (in inputs) dueTime(s int, i uint64) time.Duration {
	rg := newRNG(in.seed, saltSched+uint64(s)<<40, i)
	return time.Duration((float64(i) + rg.unit()) / in.w.Streams[s].Rate * float64(time.Second))
}

// ackLog records every acknowledged insert so the durability gates can
// re-check each acked key later.
type ackLog struct {
	mu   sync.Mutex
	refs []writeRef
	// open holds one flag per open-loop write, set when its ack arrives;
	// read-your-writes probes consult it at send time.
	open []atomic.Bool
}

func (a *ackLog) add(ref writeRef) {
	if ref.ph == phaseOpen && int(ref.index) < len(a.open) {
		a.open[ref.index].Store(true)
	}
	a.mu.Lock()
	a.refs = append(a.refs, ref)
	a.mu.Unlock()
}

func (a *ackLog) snapshot() []writeRef {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]writeRef(nil), a.refs...)
}

var errFalseNegative = errors.New("false negative")

// checkVerdicts decodes a query answer and checks it: the first mustTrue
// items, and every listed read-your-writes item, must answer true.
func checkVerdicts(r *request, c string, body []byte, verdicts []bool, rywMust []int) ([]bool, error) {
	verdicts, err := decodeVerdicts(c, body, verdicts[:0])
	if err != nil {
		return verdicts, err
	}
	if len(verdicts) != r.items {
		return verdicts, fmt.Errorf("answer has %d verdicts for %d items", len(verdicts), r.items)
	}
	for i, v := range verdicts[:r.mustTrue] {
		if !v {
			return verdicts, fmt.Errorf("%w: %s item %d answered false", errFalseNegative, kindNames[r.kind], i)
		}
	}
	for _, i := range rywMust {
		if !verdicts[i] {
			return verdicts, fmt.Errorf("%w: read-your-writes key %d of an acked insert answered false", errFalseNegative, r.keys[i])
		}
	}
	return verdicts, nil
}

// decodeVerdicts parses a binary result frame or a JSON {"results":[...]}.
func decodeVerdicts(ctype string, body []byte, dst []bool) ([]bool, error) {
	if ctype == wire.ContentType {
		h, err := wire.ParseHeader(body)
		if err != nil {
			return dst, err
		}
		return wire.DecodeResult(h, body[wire.HeaderSize:], dst)
	}
	i := bytes.IndexByte(body, '[')
	if i < 0 || !bytes.HasPrefix(bytes.TrimSpace(body), []byte(`{"results":`)) {
		return dst, fmt.Errorf("unexpected JSON answer %.80q", body)
	}
	for _, c := range body[i+1:] {
		switch c {
		case 't':
			dst = append(dst, true)
		case 'f':
			dst = append(dst, false)
		case ']':
			return dst, nil
		}
	}
	return dst, fmt.Errorf("unterminated JSON answer %.80q", body)
}
