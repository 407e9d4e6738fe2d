package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/obs"
)

// JSON batch handlers and codec: the insert, query and query-range
// bodies, scanned by hand straight into the request's pooled
// batchScratch, and their responses appended into the same scratch. A
// warm JSON batch request allocates nothing on the heap, like a binary
// one (binary.go).
//
// The accepted grammar (docs/server.md, "JSON batch grammar") is exactly
// what encoding/json accepted for the structs these endpoints used to
// decode, with DisallowUnknownFields (FuzzJSONBatchDecode keeps them as
// its reference), plus one rule: nothing but whitespace may follow the
// value.

// Shape errors, reported after the body scanned cleanly.
var (
	errKeysShape   = errors.New(`provide exactly one of "key" and "keys"`)
	errRangesShape = errors.New(`provide either "lo" and "hi", or "ranges"`)
	errRangeBounds = errors.New(`both "lo" and "hi" are required`)
)

// jsonContentType is the JSON response Content-Type, ready-made so the
// hot path assigns it into the header map without allocating.
var jsonContentType = []string{"application/json"}

// readJSONBody reads the whole request body into sc.body under the
// maxBodyBytes limit. An oversized body is a 413 and any other read
// failure a 400; either way the response is written and ok is false.
//
// sc.body grows only as bytes arrive, never to the Content-Length the
// client declares: a header alone must not make the server reserve up to
// maxBodyBytes. A warm scratch already has the capacity and allocates
// nothing.
func readJSONBody(w http.ResponseWriter, r *http.Request, sc *batchScratch) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := sc.body[:0]
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.body = b
			writeBodyError(w, err)
			return false
		}
	}
	sc.body = b
	return true
}

// writeBodyError answers a body that could not be read or decoded: 413
// for one over the size limit, 400 otherwise. An oversized body is not a
// syntax error — the client's JSON may be well-formed, and "split the
// batch" is a different fix than "fix the syntax".
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d MiB limit; split the batch into smaller requests", maxBodyBytes>>20)
		return
	}
	writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
}

// writeJSONBytes sends a complete JSON response body with status 200.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
}

// The response encoders produce the bytes json.Encoder wrote for the
// equivalent map, trailing newline included.

func appendResultsJSON(dst []byte, out []bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i, v := range out {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, v)
	}
	return append(dst, "]}\n"...)
}

func appendResultJSON(dst []byte, v bool) []byte {
	dst = append(dst, `{"result":`...)
	dst = strconv.AppendBool(dst, v)
	return append(dst, "}\n"...)
}

func appendInsertedJSON(dst []byte, n int) []byte {
	dst = append(dst, `{"inserted":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "}\n"...)
}

// handleInsertJSON is the JSON-codec insert path. Mutation gating and
// the filter lookup happened in serveBatch (binary.go).
func (a *API) handleInsertJSON(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opInsert, codecJSON, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	if !readJSONBody(w, r, sc) {
		return
	}
	if _, err := decodeKeysJSON(sc.body, sc); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	keys := sc.keys
	// Apply first, append second (durability.go): concurrent inserts
	// group-commit into one WAL write, and a snapshot that captured the
	// log end P is guaranteed to contain every record below P. Without a
	// WAL there is nothing to encode — skip building the record at all,
	// like the binary path does. The apply+append pair runs inside the
	// filter's mutation drain gate so a concurrent span split can prove
	// every straggler's record is in the log before it backfills
	// (split.go phase 5).
	f.beginApply()
	f.insertBatchWith(keys, sc)
	if a.wal() != nil {
		sc.tr.Enter(obs.PhaseWALAppend)
		rec, encErr := encodeInsert(name, keys)
		if !a.logWALTraced(w, rec, encErr, &sc.tr) {
			f.endApply()
			return
		}
	}
	f.endApply()
	a.noteMutationSkew(name, f)
	sc.tr.Enter(obs.PhaseEncode)
	sc.resp = appendInsertedJSON(sc.resp[:0], len(keys))
	writeJSONBytes(w, sc.resp)
	a.recordTrace(name, f, opInsert, codecJSON, &sc.tr)
}

// handleQueryJSON is the JSON-codec point-query path.
func (a *API) handleQueryJSON(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opQuery, codecJSON, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	if !readJSONBody(w, r, sc) {
		return
	}
	single, err := decodeKeysJSON(sc.body, sc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc.out = grown(sc.out, len(sc.keys))
	f.mayContainBatchWith(sc.keys, sc.out, sc)
	sc.tr.Enter(obs.PhaseEncode)
	if single {
		sc.resp = appendResultJSON(sc.resp[:0], sc.out[0])
	} else {
		sc.resp = appendResultsJSON(sc.resp[:0], sc.out)
	}
	writeJSONBytes(w, sc.resp)
	a.recordTrace(name, f, opQuery, codecJSON, &sc.tr)
}

// handleQueryRangeJSON is the JSON-codec range-query path.
func (a *API) handleQueryRangeJSON(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opQueryRange, codecJSON, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	if !readJSONBody(w, r, sc) {
		return
	}
	single, err := decodeRangesJSON(sc.body, sc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if single {
		sc.tr.Enter(obs.PhaseProbe)
		result := f.MayContainRange(sc.ranges[0][0], sc.ranges[0][1])
		sc.tr.Enter(obs.PhaseEncode)
		sc.resp = appendResultJSON(sc.resp[:0], result)
	} else {
		sc.out = grown(sc.out, len(sc.ranges))
		f.mayContainRangeBatchWith(sc.ranges, sc.out, sc)
		sc.tr.Enter(obs.PhaseEncode)
		sc.resp = appendResultsJSON(sc.resp[:0], sc.out)
	}
	writeJSONBytes(w, sc.resp)
	a.recordTrace(name, f, opQueryRange, codecJSON, &sc.tr)
}

// decodeKeysJSON scans an insert or query body into sc.keys. single
// reports the {"key": k} form, whose one key is sc.keys[0].
func decodeKeysJSON(body []byte, sc *batchScratch) (single bool, err error) {
	s := jscan{b: body}
	var key uint64
	haveKey, haveKeys, n := false, false, 0
	err = s.object(func(f jfield) error {
		var err error
		switch f {
		case fieldKey:
			if haveKey = !s.null(); haveKey {
				key, err = s.u64()
			}
		case fieldKeys:
			if haveKeys = !s.null(); haveKeys {
				n, err = s.keyList(sc)
			}
		default:
			err = s.unknownField()
		}
		return err
	})
	switch {
	case err != nil:
		return false, err
	case haveKey == haveKeys:
		return false, errKeysShape
	case haveKey:
		sc.keys = append(sc.keys[:0], key)
		return true, nil
	case n > MaxBatch:
		return false, fmt.Errorf("batch of %d keys exceeds limit %d", n, MaxBatch)
	}
	return false, nil
}

// decodeRangesJSON scans a query-range body into sc.ranges. single
// reports the {"lo": a, "hi": b} form, whose range is sc.ranges[0].
func decodeRangesJSON(body []byte, sc *batchScratch) (single bool, err error) {
	s := jscan{b: body}
	var lo, hi uint64
	haveLo, haveHi, haveRanges, n := false, false, false, 0
	sc.ranges = sc.ranges[:0]
	err = s.object(func(f jfield) error {
		var err error
		switch f {
		case fieldLo:
			if haveLo = !s.null(); haveLo {
				lo, err = s.u64()
			}
		case fieldHi:
			if haveHi = !s.null(); haveHi {
				hi, err = s.u64()
			}
		case fieldRanges:
			if haveRanges = !s.null(); haveRanges {
				n, err = s.rangeList(sc)
			} else {
				sc.ranges = sc.ranges[:0] // null drops the slots a later "ranges" would reuse
			}
		default:
			err = s.unknownField()
		}
		return err
	})
	single = haveLo || haveHi
	switch {
	case err != nil:
		return false, err
	case single == haveRanges:
		return false, errRangesShape
	case single && !(haveLo && haveHi):
		return false, errRangeBounds
	case single:
		sc.ranges = append(sc.ranges[:0], [2]uint64{lo, hi})
		return true, nil
	case n > MaxBatch:
		return false, fmt.Errorf("batch of %d ranges exceeds limit %d", n, MaxBatch)
	}
	sc.ranges = sc.ranges[:n]
	return false, nil
}

// jfield identifies a recognized field name.
type jfield uint8

const (
	fieldUnknown jfield = iota
	fieldKey
	fieldKeys
	fieldLo
	fieldHi
	fieldRanges
)

// jscan is a cursor over one JSON body. Every method fails at the first
// byte the batch grammar does not allow; the grammar never needs to skip
// a value it does not understand, because an unknown field or a value of
// the wrong type rejects the whole body.
type jscan struct {
	b     []byte
	i     int
	field int // offset of the current field name, for error messages
}

func (s *jscan) fail(what string) error {
	if s.i >= len(s.b) {
		return errors.New("invalid request body: unexpected end of JSON input")
	}
	return fmt.Errorf("invalid request body: %s at offset %d", what, s.i)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ws skips whitespace.
func (s *jscan) ws() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// eat skips whitespace and then c, reporting whether c was there.
func (s *jscan) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// null skips whitespace and then a null literal, reporting whether one
// was there. A value that starts like null but is not is left for the
// caller to reject.
func (s *jscan) null() bool {
	s.ws()
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// object scans the top-level value — an object, or null meaning no fields
// — and the end of the body.
func (s *jscan) object(member func(jfield) error) error {
	if !s.null() {
		if err := s.members(member); err != nil {
			return err
		}
	}
	return s.end()
}

// members scans an object, calling member with the cursor after each
// field name's colon. member must consume exactly that field's value.
func (s *jscan) members(member func(jfield) error) error {
	if !s.eat('{') {
		return s.fail("expected an object")
	}
	if s.eat('}') {
		return nil
	}
	for {
		f, err := s.name()
		if err != nil {
			return err
		}
		if err := member(f); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return nil
		}
		return s.fail(`expected "," or "}" after an object field`)
	}
}

// end requires the rest of the body to be whitespace.
func (s *jscan) end() error {
	s.ws()
	if s.i != len(s.b) {
		return fmt.Errorf("invalid request body: unexpected data after the JSON value at offset %d", s.i)
	}
	return nil
}

// name scans a field name and its colon and identifies the field. Names
// match as encoding/json matches struct fields: after escapes are
// decoded, case-insensitively under Unicode simple folding.
func (s *jscan) name() (jfield, error) {
	s.ws()
	s.field = s.i
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return 0, s.fail("expected a field name")
	}
	s.i++
	// Fold into buf; only a fold of up to 6 ASCII bytes — the longest
	// field name — can match.
	var buf [6]byte
	n, match := 0, true
	for {
		if s.i >= len(s.b) {
			return 0, s.fail("")
		}
		c := s.b[s.i]
		var r rune
		switch {
		case c == '"':
			s.i++
			if !s.eat(':') {
				return 0, s.fail(`expected ":" after a field name`)
			}
			if !match {
				return fieldUnknown, nil
			}
			return lookupField(string(buf[:n])), nil
		case c < 0x20:
			return 0, s.fail("invalid control character in string")
		case c == '\\':
			var ok bool
			if r, ok = s.escape(); !ok {
				return 0, s.fail("invalid escape in string")
			}
		case c < utf8.RuneSelf:
			r = rune(c)
			s.i++
		default:
			var size int
			r, size = utf8.DecodeRune(s.b[s.i:])
			s.i += size
		}
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(buf) {
			match = false
		} else if match {
			buf[n] = byte(r)
			n++
		}
	}
}

func lookupField(folded string) jfield {
	switch folded {
	case "KEY":
		return fieldKey
	case "KEYS":
		return fieldKeys
	case "LO":
		return fieldLo
	case "HI":
		return fieldHi
	case "RANGES":
		return fieldRanges
	}
	return fieldUnknown
}

// escape decodes the string escape at the cursor. A \u escape of a UTF-16
// surrogate decodes to utf8.RuneError: in a field name, neither half nor
// the pair they may form can fold to a known field's ASCII letters.
func (s *jscan) escape() (rune, bool) {
	if s.i+1 >= len(s.b) {
		return 0, false
	}
	c := s.b[s.i+1]
	switch c {
	case '"', '\\', '/':
		s.i += 2
		return rune(c), true
	case 'b', 'f', 'n', 'r', 't':
		s.i += 2
		return 0, true // a control character: matches no field name
	case 'u':
		if s.i+6 > len(s.b) {
			return 0, false
		}
		var r rune
		for _, h := range s.b[s.i+2 : s.i+6] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return 0, false
			}
			r = r<<4 | rune(h)
		}
		s.i += 6
		if 0xd800 <= r && r < 0xe000 {
			r = utf8.RuneError
		}
		return r, true
	}
	return 0, false
}

// foldRune returns the smallest rune of r's simple case-folding orbit, as
// encoding/json folds field names: K (U+212A, Kelvin sign) folds to 'K',
// ſ (U+017F, long s) to 'S'.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unknownField rejects the field whose name starts at s.field.
func (s *jscan) unknownField() error {
	name := s.b[s.field:s.i]
	for len(name) > 0 && (name[len(name)-1] == ':' || isSpace(name[len(name)-1])) {
		name = name[:len(name)-1]
	}
	return fmt.Errorf("invalid request body: json: unknown field %s", name)
}

// u64 scans one key or bound: a JSON number, or a JSON string of decimal
// digits (leading zeros allowed), either in [0, 2^64−1].
func (s *jscan) u64() (uint64, error) {
	s.ws()
	b, i := s.b, s.i
	quoted := i < len(b) && b[i] == '"'
	if quoted {
		i++
	}
	digits := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	switch nd := i - digits; {
	case nd == 0:
		return 0, s.badKey(s.i)
	case nd > 1 && !quoted && b[digits] == '0':
		return 0, s.badKey(s.i) // JSON numbers have no leading zeros
	case nd > 19:
		// v wrapped only if the value exceeds 2^64−1: past the leading
		// zeros, more than 20 digits, or 20 that compare above it.
		for digits < i && b[digits] == '0' {
			digits++
		}
		if sig := string(b[digits:i]); len(sig) > 20 || len(sig) == 20 && sig > "18446744073709551615" {
			return 0, s.badKey(s.i)
		}
	}
	if quoted {
		if i >= len(b) || b[i] != '"' {
			return 0, s.badKey(s.i)
		}
		i++
	}
	s.i = i
	return v, nil
}

func (s *jscan) badKey(start int) error {
	end := start + 24
	if end > len(s.b) {
		end = len(s.b)
	}
	return fmt.Errorf("invalid request body: key at offset %d (%q…) is not an unsigned 64-bit integer", start, s.b[start:end])
}

// keyList scans a non-null array of keys into sc.keys and returns its
// length. Keys past MaxBatch are scanned and counted but not stored.
func (s *jscan) keyList(sc *batchScratch) (int, error) {
	if !s.eat('[') {
		return 0, s.fail(`expected an array of keys`)
	}
	sc.keys = sc.keys[:0]
	if s.eat(']') {
		return 0, nil
	}
	n := 0
	for {
		v, err := s.u64()
		if err != nil {
			return 0, err
		}
		if n < MaxBatch {
			sc.keys = append(sc.keys, v)
		}
		n++
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return n, nil
		}
		return 0, s.fail(`expected "," or "]" in an array`)
	}
}

// rangeList scans a non-null array of {"lo","hi"} objects into sc.ranges
// and returns its length. encoding/json decoded a repeated array into the
// old slice in place, so slot j starts from sc.ranges[j] when an earlier
// "ranges" field of the body reached it: a null element or a missing
// bound keeps that value. len(sc.ranges) is therefore the high-water mark
// of slots written, not the result.
func (s *jscan) rangeList(sc *batchScratch) (int, error) {
	if !s.eat('[') {
		return 0, s.fail(`expected an array of ranges`)
	}
	if s.eat(']') {
		sc.ranges = sc.ranges[:0] // encoding/json replaced the slice with a fresh empty one
		return 0, nil
	}
	n := 0
	for {
		var r [2]uint64
		if n < len(sc.ranges) {
			r = sc.ranges[n]
		}
		if !s.null() {
			if err := s.rangeObject(&r); err != nil {
				return 0, err
			}
		}
		switch {
		case n < len(sc.ranges):
			sc.ranges[n] = r
		case n < MaxBatch:
			sc.ranges = append(sc.ranges, r)
		}
		n++
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return n, nil
		}
		return 0, s.fail(`expected "," or "]" in an array`)
	}
}

// rangeObject scans one {"lo": a, "hi": b} object into r.
func (s *jscan) rangeObject(r *[2]uint64) error {
	return s.members(func(f jfield) error {
		var err error
		switch f {
		case fieldLo:
			r[0], err = s.u64()
		case fieldHi:
			r[1], err = s.u64()
		default:
			err = s.unknownField()
		}
		return err
	})
}
