package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Spans are recorded only in traced runs (-trace 1), kept in memory while
// the run measures, and written out once it ends. Each goroutine that
// records owns one recorder, so recording takes no lock; a span's parent
// is an index into the same recorder, and all spans of one request share
// its request id.

// epoch anchors span timestamps; spans store nanoseconds since it.
var epoch = time.Now()

func since(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }

type span struct {
	ID     uint64 `json:"id"`     // request id, shared by all spans of a request
	Parent int32  `json:"parent"` // index of the parent span in the recorder, -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct{ spans []span }

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(id uint64, parent int32, name string, start, end int64) int32 {
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return int32(len(r.spans) - 1)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children are counted once).
func selfTimes(recs []*recorder) map[string]spanStat {
	out := map[string]spanStat{}
	for _, r := range recs {
		children := make(map[int32][]int32)
		for i, s := range r.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], int32(i))
			}
		}
		for i, s := range r.spans {
			dur := s.End - s.Start
			covered := coveredNs(s, r.spans, children[int32(i)])
			st := out[s.Name]
			st.Count++
			st.TotalNs += dur
			st.SelfNs += dur - covered
			out[s.Name] = st
		}
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, all []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
