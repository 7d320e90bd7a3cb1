package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"macs/internal/explore"
	"macs/internal/lfk"
)

// lfkExploreBody is an explore request for one case-study kernel in the
// shape perfbench sends: the encoded request, whose zero priming is
// "prime":{}, re-opened so the kernel's paper inputs follow as a second
// "prime" member.
func lfkExploreBody(t testing.TB, k *lfk.Kernel) []byte {
	head := mustJSON(t, ExploreRequest{
		Name: fmt.Sprintf("lfk%d", k.ID), Source: k.Source, Iterations: int64(k.Elements),
		Grid: explore.Grid{Axes: []explore.Axis{
			{Param: "banks", Values: []float64{16, 32}},
			{Param: "refresh-period", Values: []float64{200, 400, 800}},
			{Param: "vlmax", Values: []float64{64, 128}},
		}},
	})
	prime := mustJSON(t, Priming{Ints: k.Ints, Reals: k.Reals, Arrays: k.Arrays})
	return append(append(append(bytes.TrimSuffix(head, []byte("}")), `,"prime":`...), prime...), '}')
}

// BenchmarkDecodeBody decodes the ten case-study kernels' explore bodies,
// one body per op, through the service's body decoder.
func BenchmarkDecodeBody(b *testing.B) {
	var bodies [][]byte
	for _, k := range lfk.All() {
		bodies = append(bodies, lfkExploreBody(b, k))
	}
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req ExploreRequest
		if !decodeBody(w, bodies[i%len(bodies)], &req) {
			b.Fatalf("body %d rejected: %s", i%len(bodies), w.Body)
		}
	}
}
