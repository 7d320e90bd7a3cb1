package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"macs/internal/lfk"
)

// referenceDecode is encoding/json's strict decode of one whole body,
// written out here so the reference never reaches decodeBody's lifter:
// the behaviour decodeBody must keep for every body.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if end := dec.InputOffset(); len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0 {
			err = fmt.Errorf("data after the JSON value at offset %d", end)
		}
	}
	return err
}

// samePriming reports whether two primings are equal bit for bit: the
// same nil and empty maps and arrays, and the same float64 bits, so
// -0 and 0 differ.
func samePriming(a, b Priming) bool {
	if !reflect.DeepEqual(a.Ints, b.Ints) ||
		(a.Reals == nil) != (b.Reals == nil) || len(a.Reals) != len(b.Reals) ||
		(a.Arrays == nil) != (b.Arrays == nil) || len(a.Arrays) != len(b.Arrays) {
		return false
	}
	for name, v := range a.Reals {
		w, ok := b.Reals[name]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	for name, vs := range a.Arrays {
		ws, ok := b.Arrays[name]
		if !ok || (vs == nil) != (ws == nil) || len(vs) != len(ws) {
			return false
		}
		for i := range vs {
			if math.Float64bits(vs[i]) != math.Float64bits(ws[i]) {
				return false
			}
		}
	}
	return true
}

// checkDecode decodes body as a T through decodeBody and through
// referenceDecode. Both must accept or both reject; a rejection must
// answer the same status and text, and an accepted request must hold
// bit-identical primings with equal content keys and otherwise equal
// fields.
func checkDecode[T any](t *testing.T, body []byte, slots func(*T) []*Priming) {
	t.Helper()
	var got, want T
	rec := httptest.NewRecorder()
	ok := decodeBody(rec, body, &got)
	werr := referenceDecode(body, &want)
	if ok != (werr == nil) {
		t.Fatalf("%T: decodeBody accepted %v, encoding/json error %v: %q", got, ok, werr, body)
	}
	if !ok {
		ref := httptest.NewRecorder()
		writeError(ref, http.StatusBadRequest, fmt.Errorf("bad request body: %w", werr))
		if rec.Code != ref.Code || rec.Body.String() != ref.Body.String() {
			t.Fatalf("%T: rejection %d %s, encoding/json %d %s", got, rec.Code, rec.Body, ref.Code, ref.Body)
		}
		return
	}
	gs, ws := slots(&got), slots(&want)
	if len(gs) != len(ws) {
		t.Fatalf("%T: %d primings, encoding/json %d", got, len(gs), len(ws))
	}
	for i := range gs {
		if !samePriming(*gs[i], *ws[i]) {
			t.Fatalf("%T: priming %d = %#v, encoding/json %#v", got, i, *gs[i], *ws[i])
		}
		gk, gerr := NewKey("prime", "", *gs[i])
		wk, werr := NewKey("prime", "", *ws[i])
		if gk != wk || gerr != nil || werr != nil {
			t.Fatalf("%T: priming %d keys %s (%v), encoding/json %s (%v)", got, i, gk, gerr, wk, werr)
		}
		*gs[i], *ws[i] = Priming{}, Priming{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decoded %+v, encoding/json %+v", got, got, want)
	}
}

// FuzzDecodeBody differentially tests decodeBody against encoding/json
// for analyze, ax, explore and batch bodies: same acceptance, same
// status and error text, bit-identical values and equal content keys.
func FuzzDecodeBody(f *testing.F) {
	batch := lfkBatch(f, len(lfk.All()))
	for i, k := range lfk.All() {
		f.Add(mustJSON(f, batch.Items[i]))
		f.Add(lfkExploreBody(f, k))
	}
	// Two kernels make a batch seed the mutator can still work on.
	batch.Items = batch.Items[:2]
	f.Add(mustJSON(f, batch))
	for _, body := range []string{
		// Repeated members, sections and names merge as encoding/json merges.
		`{"source":"s","prime":{"ints":{"N":1},"ints":{"M":2}}}`,
		`{"prime":{"ints":{"N":1,"N":2}},"prime":{"reals":{"A":1.5},"ints":{"K":3}}}`,
		`{"prime":{"arrays":{"X":[1,2],"Y":[]}},"prime":{"arrays":{"X":[3]}}}`,
		`{"prime":{},"source":"s","prime":{"reals":{"A":-0,"B":0,"C":1e-400,"D":1E+2,"E":-2.5e-3}}}`,
		` { "prime" : { "ints" : { "N" : -0 } , "reals" : { } , "arrays" : { "X" : [ 0 , -0.0 ] } } } `,
		"{\"prime\":{\"ints\":{\"A\x7f\":1,\"a\":2,\"A\":3,\"A\\u007f\":4}}}",
		// null, out-of-range and malformed numbers.
		`{"prime":null}`,
		`{"prime":{"ints":null}}`,
		`{"prime":{"ints":{"N":null}}}`,
		`{"prime":{"arrays":{"X":[1,null]}}}`,
		`{"prime":{"arrays":{"X":null}}}`,
		`{"prime":{"reals":{"A":1e400}}}`,
		`{"prime":{"ints":{"N":01}}}`,
		`{"prime":{"ints":{"N":9223372036854775808}}}`,
		`{"prime":{"ints":{"N":-9223372036854775808}}}`,
		`{"prime":{"ints":{"N":1.5}}}`,
		`{"prime":{"ints":{"N":1e2}}}`,
		`{"prime":{"reals":{"A":.5}}}`,
		`{"prime":{"reals":{"A":1.}}}`,
		`{"prime":{"reals":{"A":+1}}}`,
		`{"prime":{"arrays":{"X":[1,]}}}`,
		`{"prime":5}`,
		`{"prime":[]}`,
		// Names encoding/json may fold or unescape onto a field.
		`{"PRIME":{"ints":{"N":1}}}`,
		`{"prime":{},"Prime":{"ints":{"N":1}}}`,
		`{"prİme":{"ints":{"N":1}}}`,
		`{"pr\u0069me":{"ints":{"N":1}}}`,
		`{"prime":{"Ints":{"N":1}}}`,
		`{"prime":{"ints":{"N\u0041":1,"é":2}}}`,
		`{"prime":{"inst":{"N":1}}}`,
		// Trailing data and broken remainders.
		`{"prime":{"ints":{"N":1}}} x`,
		`{"prime":{"ints":{"N":1}}}{"source":"y"}`,
		`{"prime":{"ints":{"N":1}}}` + "\n\t ",
		`{"prime":{"ints":{"N":1}},"source":1}`,
		`{"prime":{"ints":{"N":1}},"sauce":""}`,
		`{"prime":{"ints":{"N":1}}`,
		`{"source":"a\"prime\":{}","prime":{"ints":{"N":1}}}`,
		`{"grid":{"axes":[{"param":"banks","values":[16,32]}]},"prime":{"ints":{"N":1}},"top_frac":0.5}`,
		// Batches.
		`{"items":[{"source":"a","prime":{"ints":{"N":1}}},{"source":"b"},{"prime":{},"prime":{"reals":{"A":2}}}]}`,
		`{"items":[{"prime":{"ints":{"N":1}}}],"items":[{"source":"s"}]}`,
		`{"Items":[{"prime":{"ints":{"N":1}}}]}`,
		`{"items":[null,{"prime":{"ints":{"N":1}}}]}`,
		`{"items":[{"prime":{"ints":{"N":1}}}],"prime":{}}`,
		`{"items":[]}`,
		``, `{`, `null`, `[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		top := func(p *Priming) []*Priming { return []*Priming{p} }
		checkDecode(t, body, func(r *AnalyzeRequest) []*Priming { return top(&r.Prime) })
		checkDecode(t, body, func(r *AXRequest) []*Priming { return top(&r.Prime) })
		checkDecode(t, body, func(r *ExploreRequest) []*Priming { return top(&r.Prime) })
		checkDecode(t, body, func(r *BatchRequest) []*Priming {
			slots := make([]*Priming, len(r.Items))
			for i := range r.Items {
				slots[i] = &r.Items[i].Prime
			}
			return slots
		})
	})
}

// TestLFKBodiesTakeTheLifter: the case-study kernels' analyze, explore
// (perfbench's repeated-prime shape) and batch bodies are decoded by the
// lifter, not handed whole to encoding/json.
func TestLFKBodiesTakeTheLifter(t *testing.T) {
	batch := lfkBatch(t, len(lfk.All()))
	if !decodeLifted(mustJSON(t, batch), new(BatchRequest)) {
		t.Error("ten-kernel batch not lifted")
	}
	for i, k := range lfk.All() {
		if !decodeLifted(mustJSON(t, batch.Items[i]), new(AnalyzeRequest)) {
			t.Errorf("lfk%d: analyze body not lifted", k.ID)
		}
		if !decodeLifted(lfkExploreBody(t, k), new(ExploreRequest)) {
			t.Errorf("lfk%d: explore body not lifted", k.ID)
		}
	}
}
