//go:build !race

// (allocs/op is meaningless under -race; see metrics_alloc_test.go.)

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"shbf/internal/httpjson"
)

// TestHTTPDataPlaneAllocsPerRequest: a data-plane request's
// allocations are a per-request constant — net/http's request and
// recorder, the namespace lookup — with no per-key term from the
// codec. Each route is measured at 16 and at 256 keys; a per-key
// allocation would add at least 240.
func TestHTTPDataPlaneAllocsPerRequest(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	keysOf := func(n int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = fmt.Appendf(nil, "alloc-key-%d", i)
		}
		return keys
	}
	serve := func(path string, body []byte) {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rec.Body = bytes.NewBuffer(make([]byte, 0, 64<<10))
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	routes := []struct {
		path string
		body func(keys [][]byte) []byte
	}{
		{"/v2/namespaces/default/membership/add", func(k [][]byte) []byte { return httpjson.AppendKeysRequest(nil, k) }},
		{"/v2/namespaces/default/membership/contains", func(k [][]byte) []byte { return httpjson.AppendKeysRequest(nil, k) }},
		{"/v2/namespaces/default/association/add", func(k [][]byte) []byte { return httpjson.AppendSetRequest(nil, 1, k) }},
		{"/v2/namespaces/default/association/classify", func(k [][]byte) []byte { return httpjson.AppendKeysRequest(nil, k) }},
		{"/v1/association/classify", func(k [][]byte) []byte { return httpjson.AppendKeysRequest(nil, k) }},
		{"/v2/namespaces/default/multiplicity/count", func(k [][]byte) []byte { return httpjson.AppendKeysRequest(nil, k) }},
	}
	for _, rt := range routes {
		var allocs [2]float64
		for i, n := range []int{16, 256} {
			body := rt.body(keysOf(n))
			serve(rt.path, body) // first insert of each key; warms the pools
			allocs[i] = testing.AllocsPerRun(50, func() { serve(rt.path, body) })
		}
		if allocs[1]-allocs[0] >= 8 {
			t.Errorf("%s: %.1f allocs at 16 keys, %.1f at 256: a per-key term", rt.path, allocs[0], allocs[1])
		}
	}
	// Over keys already stored once, an add and a remove of the same
	// keys restore every count, so each run does the same work and
	// never inserts into the exact table.
	var allocs [2]float64
	for i, n := range []int{16, 256} {
		body := httpjson.AppendCountedRequest(nil, keysOf(n), nil)
		serve("/v2/namespaces/default/multiplicity/add", body)
		addRemove := func() {
			serve("/v2/namespaces/default/multiplicity/add", body)
			serve("/v2/namespaces/default/multiplicity/remove", body)
		}
		addRemove()
		allocs[i] = testing.AllocsPerRun(50, addRemove)
	}
	if allocs[1]-allocs[0] >= 16 {
		t.Errorf("multiplicity add+remove: %.1f allocs at 16 keys, %.1f at 256: a per-key term", allocs[0], allocs[1])
	}
}
