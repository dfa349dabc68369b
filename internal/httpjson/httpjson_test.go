package httpjson

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"shbf/internal/core"
)

// encodeRef is what the daemon's writeJSON sends for v.
func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshalRef(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// regionsRef is the classify response as a value for encoding/json.
func regionsRef(regions []core.Region, withMask bool) any {
	results := make([]regionAnswer, len(regions))
	for i, r := range regions {
		results[i] = regionJSON(r, withMask)
	}
	return map[string]any{"results": results}
}

// TestEncodersMatchEncodingJSON pins every encoder's output to the
// bytes encoding/json writes for the equivalent value: responses as
// json.NewEncoder(w).Encode writes them (the daemon's writeJSON),
// requests as json.Marshal writes the client's request maps.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	allRegions := make([]core.Region, 0, 2*numRegions)
	for r := range 2 * numRegions { // past the fragment table too
		allRegions = append(allRegions, core.Region(r))
	}
	keys := [][]byte{[]byte("a"), {}, {0, 0xff, '"', '\\', '<'}, []byte("flow-5-tuple")}
	counts := []int{3, 0, -2, 1 << 40}

	cases := []struct {
		name     string
		got, ref []byte
	}{
		{"results", AppendResults(nil, []bool{true, false, true}), encodeRef(t, map[string]any{"results": []bool{true, false, true}})},
		{"results/empty", AppendResults(nil, []bool{}), encodeRef(t, map[string]any{"results": []bool{}})},
		{"counts", AppendCounts(nil, []int{0, 7, 1 << 33, -1}), encodeRef(t, map[string]any{"counts": []int{0, 7, 1 << 33, -1}})},
		{"counts/empty", AppendCounts(nil, []int{}), encodeRef(t, map[string]any{"counts": []int{}})},
		{"added", AppendTally(nil, "added", 256), encodeRef(t, map[string]int{"added": 256})},
		{"applied", AppendTally(nil, "applied", 0), encodeRef(t, map[string]int{"applied": 0})},
		{"classify/v1", AppendRegions(nil, allRegions, false), encodeRef(t, regionsRef(allRegions, false))},
		{"classify/v2", AppendRegions(nil, allRegions, true), encodeRef(t, regionsRef(allRegions, true))},
		{"classify/empty", AppendRegions(nil, nil, true), encodeRef(t, regionsRef(nil, true))},
		{"keys-request", AppendKeysRequest(nil, keys), marshalRef(t, map[string]any{"keys": b64(keys), "encoding": "base64"})},
		{"keys-request/empty", AppendKeysRequest(nil, nil), marshalRef(t, map[string]any{"keys": b64(nil), "encoding": "base64"})},
		{"set-request", AppendSetRequest(nil, 2, keys), marshalRef(t, map[string]any{"set": 2, "keys": b64(keys), "encoding": "base64"})},
		{"counted-request", AppendCountedRequest(nil, keys, counts), marshalRef(t, countedRef(keys, counts))},
		{"counted-request/default", AppendCountedRequest(nil, keys, nil), marshalRef(t, countedRef(keys, nil))},
		{"counted-request/empty", AppendCountedRequest(nil, nil, nil), marshalRef(t, countedRef(nil, nil))},
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.ref) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.ref)
		}
	}
}

func b64(keys [][]byte) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = base64.StdEncoding.EncodeToString(k)
	}
	return out
}

// countedRef is the multiplicity request as a map for json.Marshal.
func countedRef(keys [][]byte, counts []int) any {
	items := make([]map[string]any, 0, len(keys))
	for i, k := range keys {
		count := 1
		if len(counts) != 0 {
			count = counts[i]
		}
		if count == 0 {
			continue
		}
		items = append(items, map[string]any{"key": base64.StdEncoding.EncodeToString(k), "count": count})
	}
	return map[string]any{"items": items, "encoding": "base64"}
}

// TestScanRoundTripsClientRequests: the daemon's scanner reads back
// exactly what the client's encoders wrote.
func TestScanRoundTripsClientRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b Batch
	for trial := range 200 {
		keys := randKeys(rng, rng.Intn(40))
		counts := make([]int, len(keys))
		for i := range counts {
			counts[i] = 1 + rng.Intn(5)
		}
		if !b.Scan(AppendKeysRequest(nil, keys), ShapeKeys) || !equalKeys(b.Keys, keys) {
			t.Fatalf("trial %d: keys request did not round-trip", trial)
		}
		set := 1 + trial%2
		if !b.Scan(AppendSetRequest(nil, set, keys), ShapeSet) || !equalKeys(b.Keys, keys) || b.Set != set {
			t.Fatalf("trial %d: set request did not round-trip", trial)
		}
		if !b.Scan(AppendCountedRequest(nil, keys, counts), ShapeCounted) || !equalKeys(b.Keys, keys) ||
			!reflect.DeepEqual(b.Counts, counts) {
			t.Fatalf("trial %d: counted request did not round-trip", trial)
		}
	}
}

// TestScanFallsBack lists bodies outside the canonical grammar: each
// must be left to the reference decoder, even where encoding/json
// would accept it.
func TestScanFallsBack(t *testing.T) {
	for _, c := range []struct {
		shape Shape
		body  string
	}{
		{ShapeKeys, ``},
		{ShapeKeys, `{"keys":["a\u0062"]}`},            // escape
		{ShapeKeys, `{"Keys":["a"]}`},                  // case-folded name
		{ShapeKeys, `{"keys":["a"],"keys":["b"]}`},     // duplicate
		{ShapeKeys, `{"keyz":["a"]}`},                  // unknown
		{ShapeKeys, `{"keys":null}`},                   // null
		{ShapeKeys, `{"keys":["a"]} x`},                // trailing data
		{ShapeKeys, `{"keys":["a"]}{}`},                // second value
		{ShapeKeys, `{"keys":["a"],"encoding":"hex"}`}, // unknown encoding
		{ShapeKeys, `{"keys":["!!"],"encoding":"base64"}`},
		{ShapeKeys, "{\"keys\":[\"\xff\"]}"}, // invalid UTF-8
		{ShapeKeys, "{\"keys\":[\"a\tb\"]}"}, // control character
		{ShapeKeys, `{"keys":["a"],"set":1}`},
		{ShapeSet, `{"set":1.0,"keys":[]}`},
		{ShapeSet, `{"set":1e0,"keys":[]}`},
		{ShapeSet, `{"set":01,"keys":[]}`},
		{ShapeSet, `{"set":- 1,"keys":[]}`},
		{ShapeSet, `{"set":1234567890123456789,"keys":[]}`},
		{ShapeSet, `{"set":"1","keys":[]}`},
		{ShapeCounted, `{"items":[{"key":"a","count":1,"count":2}]}`},
		{ShapeCounted, `{"items":[{"key":"a","Count":1}]}`},
		{ShapeCounted, `{"items":[{"key":"a","count":null}]}`},
		{ShapeCounted, `{"items":[{"key":"a"},]}`},
		{ShapeCounted, `{"keys":["a"]}`},
	} {
		var b Batch
		if b.Scan([]byte(c.body), c.shape) {
			t.Errorf("shape %d: %q scanned, want fallback", c.shape, c.body)
		}
	}
}

func randKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, rng.Intn(20))
		rng.Read(keys[i])
	}
	return keys
}

func equalKeys(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Reference shapes of the responses for json.Unmarshal, as the client's
// fallback decodes them.
type (
	resultsRef struct {
		Results []bool `json:"results"`
	}
	countsRef struct {
		Counts []int `json:"counts"`
	}
	masksRef struct {
		Results []struct {
			Mask *uint8 `json:"mask"`
		} `json:"results"`
	}
)

// checkResponseScan is the client-side differential: whenever a
// scanner accepts a body, json.Unmarshal must accept it too and decode
// the same value.
func checkResponseScan(t *testing.T, data []byte) {
	t.Helper()
	if got, ok := ScanResults(data); ok {
		var ref resultsRef
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(got, ref.Results) {
			t.Fatalf("ScanResults(%q) = %v; json.Unmarshal = %v, %v", data, got, ref.Results, err)
		}
	}
	if got, ok := ScanCounts(data); ok {
		var ref countsRef
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(got, ref.Counts) {
			t.Fatalf("ScanCounts(%q) = %v; json.Unmarshal = %v, %v", data, got, ref.Counts, err)
		}
	}
	if got, ok := ScanMasks(data); ok {
		var ref masksRef
		err := json.Unmarshal(data, &ref)
		if err != nil || len(got) != len(ref.Results) {
			t.Fatalf("ScanMasks(%q) = %v; json.Unmarshal: %v", data, got, err)
		}
		for i, r := range ref.Results {
			if r.Mask == nil || *r.Mask != got[i] {
				t.Fatalf("ScanMasks(%q)[%d] = %d; json.Unmarshal disagrees", data, i, got[i])
			}
		}
	}
	for _, field := range []string{"added", "applied"} {
		if got, ok := ScanTally(data, field); ok {
			var ref map[string]uint64
			if err := json.Unmarshal(data, &ref); err != nil || len(ref) != 1 || ref[field] != got {
				t.Fatalf("ScanTally(%q, %s) = %d; json.Unmarshal = %v, %v", data, field, got, ref, err)
			}
		}
	}
}

// responseCorpus is the daemon's canonical responses plus near misses.
func responseCorpus(rng *rand.Rand) [][]byte {
	var out [][]byte
	for n := range 6 {
		bools := make([]bool, n)
		counts := make([]int, n)
		regions := make([]core.Region, n)
		for i := range n {
			bools[i] = rng.Intn(2) == 1
			counts[i] = rng.Intn(300)
			regions[i] = core.Region(rng.Intn(numRegions))
		}
		out = append(out, AppendResults(nil, bools), AppendCounts(nil, counts),
			AppendRegions(nil, regions, true), AppendRegions(nil, regions, false),
			AppendTally(nil, "added", n), AppendTally(nil, "applied", rng.Int()))
	}
	out = append(out,
		[]byte(`{"results":[true ,false]}`), []byte(`{"results":[true,false],"x":1}`),
		[]byte(`{"counts":[01]}`), []byte(`{"counts":[-3,1.5]}`), []byte(`{"counts":[1] }`+"\n\t"),
		[]byte(`{"added":18446744073709551615}`), []byte(`{"applied":-1}`), []byte(`{"added": 1}`),
		[]byte(`{"results":[{"mask":3}]}`), []byte(`{"results":[]}junk`), []byte(`{"results":null}`))
	return out
}

func TestResponseScanMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, data := range responseCorpus(rng) {
		checkResponseScan(t, data)
	}
	// The daemon's canonical bytes must all take the fast path.
	canonical := []struct {
		name string
		ok   bool
	}{
		{"results", func() bool { _, ok := ScanResults(AppendResults(nil, []bool{true})); return ok }()},
		{"counts", func() bool { _, ok := ScanCounts(AppendCounts(nil, []int{4, 0})); return ok }()},
		{"masks", func() bool {
			_, ok := ScanMasks(AppendRegions(nil, []core.Region{0, 7, core.RegionBoth}, true))
			return ok
		}()},
		{"tally", func() bool { _, ok := ScanTally(AppendTally(nil, "added", 9), "added"); return ok }()},
	}
	for _, c := range canonical {
		if !c.ok {
			t.Errorf("%s: canonical response not scanned", c.name)
		}
	}
	// The v1 classify shape has no mask, so it must fall back (and the
	// client then reports the missing mask).
	if _, ok := ScanMasks(AppendRegions(nil, []core.Region{1}, false)); ok {
		t.Error("v1 classify response scanned as masks")
	}
	if !strings.Contains(string(AppendRegions(nil, []core.Region{1}, true)), `"mask":1`) {
		t.Error("v2 classify fragment lacks its mask")
	}
}

func FuzzResponseScan(f *testing.F) {
	for _, data := range responseCorpus(rand.New(rand.NewSource(3))) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseScan(t, data)
	})
}

func TestReadAll(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 100)
	for _, buf := range [][]byte{nil, make([]byte, 0, 7), []byte("prefix")} {
		prefix := string(buf)
		got, err := ReadAll(buf, iotest.OneByteReader(bytes.NewReader(want)))
		if err != nil || string(got) != prefix+string(want) {
			t.Fatalf("ReadAll(%q) = %d bytes, %v", prefix, len(got), err)
		}
	}

	// A buffer with room for the body and its EOF is used in place.
	buf := make([]byte, 0, len(want)+1)
	got, err := ReadAll(buf, bytes.NewReader(want))
	if err != nil || !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
		t.Fatalf("pre-sized ReadAll reallocated or failed: %v", err)
	}

	// A read error is returned with the bytes read before it.
	boom := errors.New("boom")
	got, err = ReadAll(nil, io.MultiReader(strings.NewReader("ab"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || string(got) != "ab" {
		t.Fatalf("ReadAll over a failing reader = %q, %v", got, err)
	}
}
