package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"shbf/internal/httpjson"
)

// decodeBody reads body as shape the way a data-plane handler does
// (scanner, falling back to encoding/json), or with the encoding/json
// reference alone.
func decodeBody(body []byte, shape httpjson.Shape, reference bool) (*dataReq, bool, *httptest.ResponseRecorder) {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	d := new(dataReq)
	var ok bool
	if reference {
		ok = d.readJSON(rec, http.MaxBytesReader(rec, r.Body, maxBodyBytes), shape)
	} else {
		ok = d.read(rec, r, shape)
	}
	return d, ok, rec
}

// checkDecodeMatchesReference is the differential behind the fast
// path: for any body and shape, the handler's decode must yield the
// batch the encoding/json reference yields, or write the same status
// and error bytes.
func checkDecodeMatchesReference(t *testing.T, body []byte, shape httpjson.Shape) {
	t.Helper()
	got, gotOK, gotRec := decodeBody(body, shape, false)
	want, wantOK, wantRec := decodeBody(body, shape, true)
	if gotOK != wantOK {
		t.Fatalf("shape %d, body %q: decode ok = %v, reference ok = %v (%s)", shape, body, gotOK, wantOK, wantRec.Body)
	}
	if !gotOK {
		if gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("shape %d, body %q: error %d %q, reference %d %q",
				shape, body, gotRec.Code, gotRec.Body, wantRec.Code, wantRec.Body)
		}
		return
	}
	if got.Set != want.Set {
		t.Fatalf("shape %d, body %q: set %d, reference %d", shape, body, got.Set, want.Set)
	}
	if shape == httpjson.ShapeSet && want.Set != 1 && want.Set != 2 {
		return // the handler rejects the set before reading any key
	}
	if !slices.EqualFunc(got.Keys, want.Keys, bytes.Equal) {
		t.Fatalf("shape %d, body %q: keys %q, reference %q", shape, body, got.Keys, want.Keys)
	}
	if !slices.Equal(got.Counts, want.Counts) || (shape == httpjson.ShapeCounted && got.items != want.items) {
		t.Fatalf("shape %d, body %q: %d items counts %v, reference %d items counts %v",
			shape, body, got.items, got.Counts, want.items, want.Counts)
	}
	if fmt.Sprint(got.itemErr) != fmt.Sprint(want.itemErr) {
		t.Fatalf("shape %d, body %q: item error %v, reference %v", shape, body, got.itemErr, want.itemErr)
	}
}

// decodeSeeds covers each shape's canonical bodies (as the Go client
// writes them), hand-written raw bodies, and the constructs the
// scanner leaves to the reference decoder.
func decodeSeeds() []struct {
	shape httpjson.Shape
	body  string
} {
	keys := [][]byte{[]byte("k1"), {0, 1, 2, 0xff}, {}}
	return []struct {
		shape httpjson.Shape
		body  string
	}{
		{httpjson.ShapeKeys, string(httpjson.AppendKeysRequest(nil, keys))},
		{httpjson.ShapeSet, string(httpjson.AppendSetRequest(nil, 2, keys))},
		{httpjson.ShapeCounted, string(httpjson.AppendCountedRequest(nil, keys, []int{3, 1, -1}))},
		{httpjson.ShapeKeys, `{"keys":["a","b"]}`},
		{httpjson.ShapeKeys, " {\n\t\"keys\" : [ \"a\" , \"é\" ] , \"encoding\":\"raw\" }\r\n"},
		{httpjson.ShapeKeys, `{}`},
		{httpjson.ShapeKeys, `{"keys":["a\u0062"]}`},
		{httpjson.ShapeKeys, `{"keys":["\"\\"]}`},
		{httpjson.ShapeKeys, `{"KEYS":["a"]}`},
		{httpjson.ShapeKeys, `{"keys":["a"],"keys":["b"]}`},
		{httpjson.ShapeKeys, `{"keys":null}`},
		{httpjson.ShapeKeys, `{"keys":["a"]}]`},
		{httpjson.ShapeKeys, `{"keys":["a"]}{`},
		{httpjson.ShapeKeys, `{"keys":["QQ=="],"encoding":"base64"}`},
		{httpjson.ShapeKeys, `{"keys":["QQ="],"encoding":"base64"}`},
		{httpjson.ShapeKeys, `{"keys":[],"encoding":"hex"}`},
		{httpjson.ShapeKeys, `{"keys":["a"],"encoding":"hex"}`},
		{httpjson.ShapeKeys, "{\"keys\":[\"\xff\"]}"},
		{httpjson.ShapeSet, `{"set":3,"keys":["!"],"encoding":"base64"}`},
		{httpjson.ShapeSet, `{"set":1.0,"keys":[]}`},
		{httpjson.ShapeSet, `{"set":-0,"keys":["x"]}`},
		{httpjson.ShapeSet, `{"set":99999999999999999999,"keys":[]}`},
		{httpjson.ShapeCounted, `{"items":[{"key":"a"},{"count":2},{}]}`},
		{httpjson.ShapeCounted, `{"items":[{"key":"QQ==","count":1},{"key":"!","count":1}],"encoding":"base64"}`},
		{httpjson.ShapeCounted, `{"items":[{"key":"a","count":1e3}]}`},
		{httpjson.ShapeCounted, `{"items":[{"key":"a","count":1,"count":2}]}`},
		{httpjson.ShapeCounted, `{"items":null,"encoding":"base64"}`},
		{httpjson.ShapeCounted, ``},
	}
}

func TestHTTPRequestDecodeMatchesReference(t *testing.T) {
	for _, s := range decodeSeeds() {
		for shape := range httpjson.ShapeCounted + 1 {
			checkDecodeMatchesReference(t, []byte(s.body), shape)
		}
	}
	// Canonical bodies must take the fast path.
	for _, s := range decodeSeeds()[:3] {
		var b httpjson.Batch
		if !b.Scan([]byte(s.body), s.shape) {
			t.Errorf("canonical body %q not scanned", s.body)
		}
	}
}

// TestHTTPRequestDecodeOversized: a body past maxBodyBytes reaches the
// reference decoder whole, so it fails exactly as before.
func TestHTTPRequestDecodeOversized(t *testing.T) {
	body := append([]byte(`{"keys":["`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
	body = append(body, `"]}`...)
	checkDecodeMatchesReference(t, body, httpjson.ShapeKeys)
}

func FuzzHTTPRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(uint8(s.shape), []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		checkDecodeMatchesReference(t, body, httpjson.Shape(shape%3))
	})
}

// TestHTTPRequestErrorBodiesPinned pins error bodies that depend on
// the reference decoder's details — encoding/json names the request
// type in a type error — to the bytes the daemon has always sent.
func TestHTTPRequestErrorBodiesPinned(t *testing.T) {
	ts := newTestServer(t, testConfig())
	for _, c := range []struct{ path, body, want string }{
		{"/v1/membership/contains", `{"keys":[1]}`,
			`{"error":"decoding request: json: cannot unmarshal number into Go struct field keyBatch.keys of type string"}`},
		{"/v1/association/add", `{"set":"1","keys":[]}`,
			`{"error":"decoding request: json: cannot unmarshal string into Go struct field setBatch.set of type int"}`},
		{"/v1/multiplicity/add", `{"items":[{"key":"a","count":"x"}]}`,
			`{"error":"decoding request: json: cannot unmarshal string into Go struct field countedItem.items.count of type int"}`},
		{"/v1/multiplicity/add", `{"items":[{"key":"a","count":-2}]}`,
			`{"error":"item 0: negative count -2"}`},
		{"/v2/namespaces/default/multiplicity/count", `{"keys":["a"],"encoding":"hex"}`,
			`{"error":"key 0: unknown encoding \"hex\" (want raw or base64)"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || string(got) != c.want+"\n" {
			t.Errorf("%s %s: %d %s, want 400 %s", c.path, c.body, resp.StatusCode, got, c.want)
		}
	}
}
