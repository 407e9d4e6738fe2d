package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reference decoder: the encoding/json structs the batch endpoints
// decoded before the hand-written scanner (jsonbatch.go), read through
// decodeStrict (DisallowUnknownFields plus the trailing-bytes rule) and
// followed by the same shape checks.

type refKeysReq struct {
	Key  *U64  `json:"key"`
	Keys []U64 `json:"keys"`
}

type refRangeReq struct {
	Lo U64 `json:"lo"`
	Hi U64 `json:"hi"`
}

type refRangesReq struct {
	Lo     *U64          `json:"lo"`
	Hi     *U64          `json:"hi"`
	Ranges []refRangeReq `json:"ranges"`
}

func refDecodeKeys(body []byte) ([]uint64, bool, error) {
	var req refKeysReq
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, false, fmt.Errorf("invalid request body: %v", err)
	}
	if (req.Key == nil) == (req.Keys == nil) {
		return nil, false, errKeysShape
	}
	if req.Key != nil {
		return []uint64{uint64(*req.Key)}, true, nil
	}
	if len(req.Keys) > MaxBatch {
		return nil, false, fmt.Errorf("batch of %d keys exceeds limit %d", len(req.Keys), MaxBatch)
	}
	out := make([]uint64, len(req.Keys))
	for i, k := range req.Keys {
		out[i] = uint64(k)
	}
	return out, false, nil
}

func refDecodeRanges(body []byte) ([][2]uint64, bool, error) {
	var req refRangesReq
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, false, fmt.Errorf("invalid request body: %v", err)
	}
	single := req.Lo != nil || req.Hi != nil
	if single == (req.Ranges != nil) {
		return nil, false, errRangesShape
	}
	if single {
		if req.Lo == nil || req.Hi == nil {
			return nil, false, errRangeBounds
		}
		return [][2]uint64{{uint64(*req.Lo), uint64(*req.Hi)}}, true, nil
	}
	if len(req.Ranges) > MaxBatch {
		return nil, false, fmt.Errorf("batch of %d ranges exceeds limit %d", len(req.Ranges), MaxBatch)
	}
	out := make([][2]uint64, len(req.Ranges))
	for i, r := range req.Ranges {
		out[i] = [2]uint64{uint64(r.Lo), uint64(r.Hi)}
	}
	return out, false, nil
}

// sameVerdict reports whether two decode errors agree: both nil, both a
// body error (only the "invalid request body" prefix is fixed; the detail
// names the scanner's own position), or the identical shape or limit
// message.
func sameVerdict(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	const prefix = "invalid request body"
	if strings.HasPrefix(want.Error(), prefix) {
		return strings.HasPrefix(got.Error(), prefix)
	}
	return got.Error() == want.Error()
}

// FuzzJSONBatchDecode checks the hand-written batch scanner against
// encoding/json: for every body, both accept or both reject (with the same
// shape message when the body itself is valid), and on acceptance they
// produce the same keys or ranges and the same single/batch form. Accepted
// bodies also pin the response encoders to json.Encoder's bytes.
func FuzzJSONBatchDecode(f *testing.F) {
	seeds := []string{
		`{"key":42}`,
		`{"keys":[1,2,3]}`,
		`{"lo":1,"hi":9}`,
		`{"ranges":[{"lo":1,"hi":9},{"lo":9,"hi":1}]}`,
		// case-folded and escaped names
		`{"KEYS":[1]}`, `{"Key":7}`, `{"RaNgEs":[{"LO":1,"Hi":2}]}`,
		`{"keys":[1]}`, `{"key":"5"}`, `{"Key":1}`, `{"keyſ":[1]}`,
		`{"ke\ud800y":1}`, `{"😀":1}`, "{\"k\xffey\":1}",
		// duplicate fields: last wins; null clears
		`{"key":1,"key":2}`, `{"keys":[1,2],"keys":[3]}`, `{"key":1,"key":null}`,
		`{"key":1,"keys":[2],"keys":null}`, `{"lo":1,"hi":2,"lo":null}`,
		`{"ranges":[{"lo":1,"hi":2},{"lo":3,"hi":4}],"ranges":[{"lo":5},null,{}]}`,
		`{"ranges":[{"lo":1,"hi":2}],"ranges":[],"ranges":[{"hi":7}]}`,
		`{"ranges":[{"lo":1,"hi":2}],"ranges":null,"ranges":[null]}`,
		`{"ranges":[{"lo":1,"hi":2,"lo":8}]}`,
		// null
		`null`, `{"keys":null}`, `{"keys":[null]}`, `{"ranges":[null]}`, `{"ranges":[{"lo":null}]}`,
		// quoted keys
		`{"keys":["007","18446744073709551615"]}`, `{"key":""}`, `{"key":"+1"}`, `{"key":"1"}`,
		`{"key":" 1"}`, `{"lo":"1","hi":"2"}`,
		// numbers: -0, exponents, fractions, leading zeros, 2^64
		`{"key":-0}`, `{"key":1e3}`, `{"key":1.0}`, `{"key":007}`, `{"key":0}`, `{"keys":[0,00]}`,
		`{"key":18446744073709551615}`, `{"key":18446744073709551616}`, `{"key":"18446744073709551616"}`,
		`{"key":99999999999999999999}`, `{"key":-1}`,
		// truncated quoted keys of 20+ zeros: the overflow check must stay in bounds
		`{"key":"00000000000000000000`, `{"key":"000000000000000000000`, `{"keys":["000000000000000000000`,
		// unknown fields, nested too
		`{"unknown":true}`, `{"keys":[1],"x":{"y":[1,{"z":null}]}}`, `{"ranges":[{"lo":1,"hi":2,"mid":3}]}`,
		`{"ranges":[{"lo":1,"hi":2,"ranges":[]}]}`,
		// whitespace everywhere, and trailing bytes
		" \t\r\n{ \"keys\" \t: [ 1 ,\n2 ] } \r\n", ` { "lo" : 1 , "hi" : 2 } `,
		`{"keys":[1]} {"keys":[2]}`, `{"key":1}x`, `{"key":1}}`, `null null`,
		// wrong types and broken syntax
		`{"keys":"123"}`, `{"keys":{"a":1}}`, `{"key":[1]}`, `{"key":true}`, `{"ranges":[[1,2]]}`,
		`{"keys":[1,]}`, `{"keys":[1 2]}`, `{,}`, `{"key":1,}`, `{"key" 1}`, `{"keys":[`, `[1,2,3]`,
		`"keys"`, `42`, ``, `   `, `nul`, `{"key":nul}`, "{\"key\":\"1\x01\"}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// One scratch for every input, as the pool recycles them: stale
	// contents from an earlier body must never leak into a later one.
	sc := new(batchScratch)
	f.Fuzz(func(t *testing.T, body []byte) {

		wantKeys, wantSingle, wantErr := refDecodeKeys(body)
		gotSingle, gotErr := decodeKeysJSON(body, sc)
		if !sameVerdict(gotErr, wantErr) {
			t.Fatalf("keys %q: scanner error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if wantErr == nil {
			if gotSingle != wantSingle || !slices.Equal(sc.keys, wantKeys) {
				t.Fatalf("keys %q: scanner %v single=%v, encoding/json %v single=%v",
					body, sc.keys, gotSingle, wantKeys, wantSingle)
			}
			verdicts := make([]bool, len(wantKeys))
			for i, k := range wantKeys {
				verdicts[i] = k&1 == 1
			}
			checkEncoders(t, verdicts, len(wantKeys))
		}

		wantRanges, wantSingle, wantErr := refDecodeRanges(body)
		gotSingle, gotErr = decodeRangesJSON(body, sc)
		if !sameVerdict(gotErr, wantErr) {
			t.Fatalf("ranges %q: scanner error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if wantErr == nil {
			if gotSingle != wantSingle || !slices.Equal(sc.ranges, wantRanges) {
				t.Fatalf("ranges %q: scanner %v single=%v, encoding/json %v single=%v",
					body, sc.ranges, gotSingle, wantRanges, wantSingle)
			}
		}
	})
}

// checkEncoders requires the appending response encoders to write what
// json.Encoder wrote for the same map.
func checkEncoders(t *testing.T, verdicts []bool, inserted int) {
	t.Helper()
	enc := func(v any) string {
		var b bytes.Buffer
		_ = json.NewEncoder(&b).Encode(v)
		return b.String()
	}
	for _, c := range []struct{ got, want string }{
		{string(appendResultsJSON(nil, verdicts)), enc(map[string]any{"results": verdicts})},
		{string(appendResultJSON(nil, inserted%2 == 1)), enc(map[string]any{"result": inserted%2 == 1})},
		{string(appendInsertedJSON(nil, inserted)), enc(map[string]any{"inserted": inserted})},
	} {
		if c.got != c.want {
			t.Fatalf("response encoder wrote %q, json.Encoder %q", c.got, c.want)
		}
	}
}

// TestTrailingBytesRejected pins the trailing-bytes rule on every JSON
// body: json.Decoder reads one value, so an insert of
// {"keys":[1]} {"keys":[2]} used to answer 200 {"inserted":1} and drop
// key 2 without an error. Anything but whitespace after the value is now
// a 400 on the batch endpoints and on create and split alike.
func TestTrailingBytesRejected(t *testing.T) {
	a, f := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 10_000, Shards: 2, Partitioning: PartitionRange})
	for _, c := range []struct{ path, body string }{
		{"/v1/filters/f/insert", `{"keys":[1]} {"keys":[2]}`},
		{"/v1/filters/f/insert", `{"key":3}x`},
		{"/v1/filters/f/query", `{"keys":[1]}]`},
		{"/v1/filters/f/query-range", `{"lo":1,"hi":2}{}`},
		{"/v1/filters", `{"name":"g","expected_keys":1000} {"name":"h"}`},
		{"/v1/filters/f/split", `{} {}`},
	} {
		code, body := doReq(t, a, "POST", c.path, c.body)
		if code != http.StatusBadRequest || !strings.Contains(body, "invalid request body") {
			t.Errorf("POST %s %s: %d %s, want 400 invalid request body", c.path, c.body, code, body)
		}
	}
	if f.MayContain(1) || f.MayContain(2) || f.MayContain(3) {
		t.Error("a rejected insert applied keys")
	}
	// Trailing whitespace is not trailing data.
	if code, body := doReq(t, a, "POST", "/v1/filters/f/insert", "{\"keys\":[4]} \r\n\t"); code != http.StatusOK ||
		body != "{\"inserted\":1}\n" {
		t.Fatalf("insert with trailing whitespace: %d %q", code, body)
	}
	if code, body := doReq(t, a, "POST", "/v1/filters/f/split", ""); code != http.StatusOK {
		t.Fatalf("split with an empty body: %d %s", code, body)
	}
}

// TestJSONBodyIgnoresDeclaredLength pins that readJSONBody sizes its
// buffer by the bytes that arrive, not by the Content-Length the client
// declares: headers alone must not make the server reserve maxBodyBytes.
func TestJSONBodyIgnoresDeclaredLength(t *testing.T) {
	const body = `{"keys":[1,2,3]}`
	r, err := http.NewRequest("POST", "/v1/filters/f/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.ContentLength = maxBodyBytes
	sc := new(batchScratch)
	if !readJSONBody(httptest.NewRecorder(), r, sc) {
		t.Fatal("readJSONBody rejected a valid body")
	}
	if string(sc.body) != body {
		t.Fatalf("read %q, want %q", sc.body, body)
	}
	if c := cap(sc.body); c > 4096 {
		t.Fatalf("a %d-byte body declared as %d bytes left a %d-byte buffer", len(body), maxBodyBytes, c)
	}
}

// BenchmarkJSONBatchDecode measures the scanner against the encoding/json
// reference on the range-small-json workload's request shape: 256 ranges
// with random decimal bounds.
func BenchmarkJSONBatchDecode(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"ranges":[`)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 256; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lo := x >> 1
		fmt.Fprintf(&body, `{"lo":%s,"hi":%s}`, strconv.FormatUint(lo, 10), strconv.FormatUint(lo+x%(1<<30), 10))
	}
	body.WriteString(`]}`)
	b.Run("scanner", func(b *testing.B) {
		sc := new(batchScratch)
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRangesJSON(body.Bytes(), sc); err != nil || len(sc.ranges) != 256 {
				b.Fatal(err, len(sc.ranges))
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r, _, err := refDecodeRanges(body.Bytes()); err != nil || len(r) != 256 {
				b.Fatal(err, len(r))
			}
		}
	})
}
