package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"
)

// digest hashes every request body the first n jobs of each stream and
// phase produce, their due times, and a stretch of preload and tail keys.
func digest(w workload, seed int64, n int) [32]byte {
	in := inputs{w: w, seed: seed}
	h := sha256.New()
	var r request
	for _, ph := range []phase{phaseWarm, phaseOpen, phaseClosed} {
		for si := range w.Streams {
			for i := 0; i < n; i++ {
				due := in.dueTime(si, uint64(i))
				in.build(&r, ph, job{stream: si, index: uint64(i), due: due})
				h.Write(r.body)
				h.Write([]byte(due.String()))
			}
		}
	}
	var b [8]byte
	for i := uint64(0); i < 1000; i++ {
		put := func(k uint64) {
			for j := range b {
				b[j] = byte(k >> (8 * j))
			}
			h.Write(b[:])
		}
		put(preloadKey(seed, i))
		put(in.tailKey(i%3, i))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := digest(w, 7, 40), digest(w, 7, 40)
		if a != b {
			t.Errorf("%s: the same seed produced different inputs", w.Name)
		}
		if c := digest(w, 8, 40); c == a {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w.Name)
		}
	}
}

func TestRequestBodiesAreByteIdentical(t *testing.T) {
	w := workloads[1] // JSON codec: the encoding path with the most formatting
	in := inputs{w: w, seed: 3}
	var r1, r2 request
	for si := range w.Streams {
		in.build(&r1, phaseOpen, job{stream: si, index: 17})
		first := append([]byte(nil), r1.body...)
		in.build(&r2, phaseOpen, job{stream: si, index: 99}) // dirty the buffers
		in.build(&r2, phaseOpen, job{stream: si, index: 17})
		if !bytes.Equal(first, r2.body) {
			t.Fatalf("stream %d: rebuilding a request changed its bytes", si)
		}
	}
}

func TestKeySpaceSeparation(t *testing.T) {
	rg := newRNG(5, saltFPR, 0)
	for i := 0; i < 10000; i++ {
		if k := preloadKey(5, uint64(i)); k&holeBit != 0 {
			t.Fatalf("stored key %#x has the hole bit set", k)
		}
		if k := absentKey(&rg); k&holeBit == 0 {
			t.Fatalf("absent key %#x lacks the hole bit", k)
		}
		w := width(&rg, 30)
		if w < 1 || w > 1<<30 {
			t.Fatalf("width %d outside [1, 2^30]", w)
		}
		e := emptyRange(&rg, w)
		if e[1]-e[0]+1 != w || e[0]&holeBit == 0 || e[1]&holeBit == 0 || e[0]>>41 != e[1]>>41 {
			t.Fatalf("empty range %#x..%#x (width %d) can hold a stored key", e[0], e[1], w)
		}
		k := preloadKey(5, uint64(i))
		c := coveringRange(&rg, k, w)
		if c[0] > k || c[1] < k {
			t.Fatalf("covering range %d..%d misses key %d", c[0], c[1], k)
		}
	}
}

func TestMixPatternIsAPartition(t *testing.T) {
	w := workloads[0]
	p := mixPattern(w)
	seen := make([]map[uint64]bool, len(w.Streams))
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	const n = 1000
	for i := int64(0); i < n; i++ {
		j := p.job(i)
		if seen[j.stream][j.index] {
			t.Fatalf("request %d repeats stream %d index %d", i, j.stream, j.index)
		}
		seen[j.stream][j.index] = true
	}
	// Each stream gets its share of the mix, by rate.
	var total float64
	for _, s := range w.Streams {
		total += s.Rate
	}
	for si, s := range w.Streams {
		want := n * s.Rate / total
		if got := float64(len(seen[si])); got < want-2 || got > want+2 {
			t.Errorf("stream %d got %v of %d requests, want about %v", si, got, n, want)
		}
	}
}

func TestDueTimesStayInTheirSlots(t *testing.T) {
	for _, w := range workloads {
		in := inputs{w: w, seed: 5}
		for si, s := range w.Streams {
			slot := time.Duration(float64(time.Second) / s.Rate)
			for i := 0; i < 2000; i++ {
				lo := time.Duration(float64(i) * float64(time.Second) / s.Rate)
				if d := in.dueTime(si, uint64(i)); d < lo || d >= lo+slot {
					t.Fatalf("%s stream %d request %d due at %v, outside [%v, %v)", w.Name, si, i, d, lo, lo+slot)
				}
			}
		}
	}
}

func TestReadYourWritesProbesOnlyEarlierWrites(t *testing.T) {
	w, _ := findWorkload("durable-mix")
	in := inputs{w: w, seed: 9}
	ws, rs := w.streamOf(kindWrite), w.streamOf(kindRead)
	var r request
	probes := 0
	for i := 0; i < 2000; i++ {
		due := in.dueTime(rs, uint64(i))
		in.build(&r, phaseOpen, job{stream: rs, index: uint64(i), due: due})
		for _, idx := range r.rywRefs {
			probes++
			if wd := in.dueTime(ws, uint64(idx)); wd > due-rywLag {
				t.Fatalf("read %d (due %v) probes write %d, due %v: less than %v earlier", i, due, idx, wd, rywLag)
			}
		}
	}
	if probes == 0 {
		t.Fatal("no read-your-writes probes")
	}
}
