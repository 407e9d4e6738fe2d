package server

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Binary batch handlers: the application/x-bloomrf-batch content type on
// the insert, query and query-range endpoints. JSON stays the default —
// a request that does not declare the binary content type goes to the
// JSON batch codec (jsonbatch.go) — but a client that does gets the wire
// package's framed codec end to end: the request payload is raw
// little-endian keys/ranges, the response a verdict bitmap (or an ack),
// and the whole round trip reuses one pooled batchScratch, so a warm
// request allocates nothing on the heap. Error responses stay JSON on every endpoint (they
// are off the hot path, and a JSON body is strictly more debuggable than
// a binary one).
//
// The WAL insert path is the one deliberate exception to zero-allocation:
// encoding a durable record costs one buffer per request, which is the
// price of durability, not of the codec (serving-only deployments skip
// it entirely).

// binaryContentType is the response Content-Type header value, stored as
// a ready-made []string so the hot path assigns it into the header map
// without allocating.
var binaryContentType = []string{wire.ContentType}

// isBinaryBatch reports whether the request selects the binary batch codec.
// Media types are case-insensitive (RFC 7231 §3.1.1.1) and may carry
// parameters after a semicolon; EqualFold over the prefix handles both
// without allocating.
func isBinaryBatch(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	n := len(wire.ContentType)
	if len(ct) < n || !strings.EqualFold(ct[:n], wire.ContentType) {
		return false
	}
	return len(ct) == n || ct[n] == ';' || ct[n] == ' '
}

// serveBatchFast routes an insert, query or query-range request of either
// codec without going through the ServeMux, reporting whether it claimed
// the request. The generic router allocates its wildcard-match slice on
// every request it routes, which would be the one remaining per-request
// allocation on the batch hot path; substring-slicing the URL path costs
// nothing. Requests it does not recognize (other endpoints, a name
// segment the mux would clean or unescape) fall through to the mux, whose
// batch routes end in the same serveBatch.
func (a *API) serveBatchFast(w http.ResponseWriter, r *http.Request) bool {
	const prefix = "/v1/filters/"
	path := r.URL.Path
	if r.Method != http.MethodPost || !strings.HasPrefix(path, prefix) {
		return false
	}
	rest := path[len(prefix):]
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 {
		return false
	}
	name := rest[:i]
	if strings.IndexByte(name, '/') >= 0 || name == "." || name == ".." {
		return false // the mux cleans or unescapes these paths
	}
	var op latOp
	switch rest[i+1:] {
	case "insert":
		op = opInsert
	case "query":
		op = opQuery
	case "query-range":
		op = opQueryRange
	default:
		return false
	}
	a.serveBatch(w, r, name, op)
	return true
}

// serveBatch gates, resolves and dispatches one batch request to its
// codec's handler. Inserts are gated before the lookup: an
// unauthenticated insert must answer 401 whether or not the filter
// exists, or the 404 would let clients enumerate filter names without the
// token.
func (a *API) serveBatch(w http.ResponseWriter, r *http.Request, name string, op latOp) {
	if op == opInsert && !a.allowMutation(w, r) {
		return
	}
	f, err := a.reg.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "filter %q not found", name)
		return
	}
	bin := isBinaryBatch(r)
	switch {
	case op == opInsert && bin:
		a.handleInsertBinary(w, r, f, name)
	case op == opInsert:
		a.handleInsertJSON(w, r, f, name)
	case op == opQuery && bin:
		a.handleQueryBinary(w, r, f, name)
	case op == opQuery:
		a.handleQueryJSON(w, r, f, name)
	case bin:
		a.handleQueryRangeBinary(w, r, f, name)
	default:
		a.handleQueryRangeJSON(w, r, f, name)
	}
}

// readBinaryFrame reads one request frame (header + payload) into sc.body
// and parses the header. On failure it writes the HTTP error response and
// returns ok = false.
func readBinaryFrame(w http.ResponseWriter, r *http.Request, sc *batchScratch) (h wire.Header, ok bool) {
	sc.body = grown(sc.body, wire.HeaderSize)
	if _, err := io.ReadFull(r.Body, sc.body[:wire.HeaderSize]); err != nil {
		writeErr(w, http.StatusBadRequest, "reading binary frame header: %v", err)
		return h, false
	}
	h, err := wire.ParseHeader(sc.body[:wire.HeaderSize])
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return h, false
	}
	if h.Count > MaxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d items exceeds limit %d", h.Count, MaxBatch)
		return h, false
	}
	// The header's Len is bounded by wire.MaxCount × 16 bytes, so this read
	// cannot be baited into buffering more than ~16 MiB.
	sc.body = grown(sc.body, int(h.Len))
	if _, err := io.ReadFull(r.Body, sc.body[:h.Len]); err != nil {
		writeErr(w, http.StatusBadRequest, "reading binary frame payload (%d bytes declared): %v", h.Len, err)
		return h, false
	}
	return h, true
}

// writeBinaryResponse sends a completed response frame from sc.resp.
func writeBinaryResponse(w http.ResponseWriter, sc *batchScratch) {
	w.Header()["Content-Type"] = binaryContentType
	_, _ = w.Write(sc.resp)
}

// decodeBadFrame maps a payload decode failure to an HTTP error. Decode
// errors are always client-side framing mistakes (ErrBadFrame), but guard
// anyway so a future codec error cannot masquerade as a 400.
func decodeBadFrame(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if !errors.Is(err, wire.ErrBadFrame) {
		code = http.StatusInternalServerError
	}
	writeErr(w, code, "%v", err)
}

// handleInsertBinary is the binary-codec insert path. Mutation gating
// (read-only / auth) happened in serveBatch; name is the filter's
// registry name (passed explicitly because the fast route bypasses the
// mux's PathValue machinery).
func (a *API) handleInsertBinary(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opInsert, codecBinary, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	h, ok := readBinaryFrame(w, r, sc)
	if !ok {
		return
	}
	if h.Op != wire.OpInsert {
		writeErr(w, http.StatusBadRequest, "insert endpoint got a %s frame", h.Op)
		return
	}
	keys, err := wire.DecodeKeys(h, sc.body[:h.Len], sc.keys)
	if err != nil {
		decodeBadFrame(w, err)
		return
	}
	sc.keys = keys
	// Apply first, append second — the same durability contract as the JSON
	// path (durability.go). The beginApply/endApply bracket marks the
	// apply+append window for a concurrent span split's drain barrier
	// (split.go): once the splitter has drained these brackets, every
	// mutation routed through the old table is also in the WAL below the
	// replay ceiling. Encoding the record is skipped entirely when no WAL is
	// attached, which keeps serving-only inserts allocation-free.
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
	sc.resp = wire.AppendAck(sc.resp[:0], uint32(len(keys)))
	writeBinaryResponse(w, sc)
	a.recordTrace(name, f, opInsert, codecBinary, &sc.tr)
}

// handleQueryBinary is the binary-codec point-query path. name is passed
// explicitly for the same reason as on the insert path: the fast route
// bypasses the mux's PathValue machinery.
func (a *API) handleQueryBinary(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opQuery, codecBinary, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	h, ok := readBinaryFrame(w, r, sc)
	if !ok {
		return
	}
	if h.Op != wire.OpQuery {
		writeErr(w, http.StatusBadRequest, "query endpoint got a %s frame", h.Op)
		return
	}
	keys, err := wire.DecodeKeys(h, sc.body[:h.Len], sc.keys)
	if err != nil {
		decodeBadFrame(w, err)
		return
	}
	sc.keys = keys
	sc.out = grown(sc.out, len(keys))
	f.mayContainBatchWith(keys, sc.out, sc)
	sc.tr.Enter(obs.PhaseEncode)
	sc.resp = wire.AppendResult(sc.resp[:0], sc.out)
	writeBinaryResponse(w, sc)
	a.recordTrace(name, f, opQuery, codecBinary, &sc.tr)
}

// handleQueryRangeBinary is the binary-codec range-query path.
func (a *API) handleQueryRangeBinary(w http.ResponseWriter, r *http.Request, f *ShardedFilter, name string) {
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	defer f.observeLatency(opQueryRange, codecBinary, time.Now())
	sc.tr.Enter(obs.PhaseDecode)
	h, ok := readBinaryFrame(w, r, sc)
	if !ok {
		return
	}
	if h.Op != wire.OpQueryRange {
		writeErr(w, http.StatusBadRequest, "query-range endpoint got a %s frame", h.Op)
		return
	}
	ranges, err := wire.DecodeRanges(h, sc.body[:h.Len], sc.ranges)
	if err != nil {
		decodeBadFrame(w, err)
		return
	}
	sc.ranges = ranges
	sc.out = grown(sc.out, len(ranges))
	f.mayContainRangeBatchWith(ranges, sc.out, sc)
	sc.tr.Enter(obs.PhaseEncode)
	sc.resp = wire.AppendResult(sc.resp[:0], sc.out)
	writeBinaryResponse(w, sc)
	a.recordTrace(name, f, opQueryRange, codecBinary, &sc.tr)
}
