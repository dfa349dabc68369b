package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"shbf/internal/core"
	"shbf/internal/httpjson"
)

// The HTTP data plane's request codec. A data-plane handler reads its
// body into a pooled dataReq and decodes it with the httpjson scanner;
// a body outside the scanner's canonical grammar goes, byte for byte,
// through readJSON's encoding/json path instead, which defines the API
// and every error it reports. Responses are appended into the same
// dataReq and sent with one Write, as writeJSON sends them.

// dataReq is one data-plane request's reusable state.
type dataReq struct {
	httpjson.Batch
	// items is the number of items a counted batch holds, all of which
	// admission charges; itemErr is its first undecodable item, which
	// fails the request once the items before it have applied.
	items   int
	itemErr error

	body    []byte
	out     []byte
	bools   []bool
	regions []core.Region
	counts  []int
}

var dataReqs = sync.Pool{New: func() any { return new(dataReq) }}

// A request whose buffers grew past these caps is left to the GC
// rather than pooled, so one large batch does not pin its memory.
const (
	maxPooledBytes = 1 << 20
	maxPooledKeys  = 1 << 15
)

func newDataReq() *dataReq { return dataReqs.Get().(*dataReq) }

func (d *dataReq) release() {
	if cap(d.body) > maxPooledBytes || cap(d.out) > maxPooledBytes || cap(d.Keys) > maxPooledKeys {
		return
	}
	d.Reset()
	d.items, d.itemErr = 0, nil
	dataReqs.Put(d)
}

// read decodes r's body as shape. On false the error response has been
// written.
func (d *dataReq) read(w http.ResponseWriter, r *http.Request, shape httpjson.Shape) bool {
	rest := d.readBody(r)
	if rest == nil && d.Scan(d.body, shape) {
		d.items = len(d.Keys)
		return true
	}
	d.Reset()
	var body io.Reader = bytes.NewReader(d.body)
	if rest != nil {
		body = io.MultiReader(body, rest)
	}
	return d.readJSON(w, http.MaxBytesReader(w, io.NopCloser(body), maxBodyBytes), shape)
}

// readBody reads the body into d.body, up to one byte past
// maxBodyBytes. It returns nil when the body was read to its end, and
// otherwise what follows d.body: the rest of an oversized body, or the
// read error.
func (d *dataReq) readBody(r *http.Request) io.Reader {
	buf := d.body[:0]
	// Size for the announced length, within the pooling cap: a larger
	// claim is believed only as its bytes arrive.
	if n := r.ContentLength; n > 0 && n < maxPooledBytes {
		buf = slices.Grow(buf, int(n)+1) // +1: room to read the EOF
	}
	buf, err := httpjson.ReadAll(buf, io.LimitReader(r.Body, maxBodyBytes+1))
	d.body = buf
	switch {
	case err != nil:
		return errReader{err}
	case len(buf) > maxBodyBytes:
		return r.Body
	}
	return nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readJSON is the reference decoder: encoding/json over the httpjson
// request types, reporting every error as the API defines it.
func (d *dataReq) readJSON(w http.ResponseWriter, body io.Reader, shape httpjson.Shape) bool {
	switch shape {
	case httpjson.ShapeKeys:
		var req httpjson.KeyBatch
		return decodeJSON(w, body, &req) && d.decodeKeys(w, req.Keys, req.Encoding)
	case httpjson.ShapeSet:
		var req httpjson.SetBatch
		if !decodeJSON(w, body, &req) {
			return false
		}
		d.Set = req.Set
		if req.Set != 1 && req.Set != 2 {
			return true // the handler rejects the set before any key
		}
		return d.decodeKeys(w, req.Keys, req.Encoding)
	default:
		var req httpjson.CountedBatch
		if !decodeJSON(w, body, &req) {
			return false
		}
		d.items = len(req.Items)
		for i, item := range req.Items {
			key, err := decodeKey(item.Key, req.Encoding)
			if err != nil {
				d.itemErr = fmt.Errorf("item %d: %w", i, err)
				break
			}
			d.Keys = append(d.Keys, key)
			d.Counts = append(d.Counts, item.Count)
		}
		return true
	}
}

func (d *dataReq) decodeKeys(w http.ResponseWriter, keys []string, encoding string) bool {
	out, err := decodeKeys(keys, encoding)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	d.Keys = out
	return true
}

// send writes body, rendered into d.out, as a 200 response.
func (d *dataReq) send(w http.ResponseWriter, body []byte) {
	d.out = body
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // headers are gone; nothing useful to do with a failure
}
