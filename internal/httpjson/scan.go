package httpjson

import (
	"bytes"
	"encoding/base64"
	"unicode/utf8"
)

// Shape names the request body a data-plane route accepts.
type Shape uint8

const (
	// ShapeKeys is KeyBatch: membership add/contains, classify, count.
	ShapeKeys Shape = iota
	// ShapeSet is SetBatch: association add/remove.
	ShapeSet
	// ShapeCounted is CountedBatch: multiplicity add/remove.
	ShapeCounted
)

// Batch is a decoded data-plane request, reused across requests. Keys
// alias the scanned body (raw encoding) or the Batch's own arena
// (base64), so they are valid only until the next Scan and only while
// the body is unchanged.
type Batch struct {
	// Keys are the element keys, one per item for ShapeCounted.
	Keys [][]byte
	// Counts holds each item's count as sent (0 when absent);
	// ShapeCounted only.
	Counts []int
	// Set is the association set as sent; ShapeSet only.
	Set int

	spans []span // string contents of the keys, as body offsets
	arena []byte // decoded base64 keys
}

type span struct{ start, end int }

// Reset empties b, keeping its buffers.
func (b *Batch) Reset() {
	clear(b.Keys)
	b.Keys, b.Counts, b.Set, b.spans = b.Keys[:0], b.Counts[:0], 0, b.spans[:0]
}

// Fields of the request shapes, as bits for duplicate detection.
const (
	fieldKeys = 1 << iota
	fieldItems
	fieldSet
	fieldEncoding
)

func fieldOf(name []byte, shape Shape) int {
	switch string(name) {
	case "keys":
		if shape != ShapeCounted {
			return fieldKeys
		}
	case "items":
		if shape == ShapeCounted {
			return fieldItems
		}
	case "set":
		if shape == ShapeSet {
			return fieldSet
		}
	case "encoding":
		return fieldEncoding
	}
	return 0
}

// Scan decodes body as shape into b in one pass. It reports false, with
// b in an unspecified state, when the body is outside the canonical
// grammar or would fail to decode: the caller then decodes the same
// bytes with encoding/json, which defines the API and every error it
// reports. The canonical grammar is one JSON object, with optional
// JSON whitespace between tokens, whose fields are the shape's
// exact-case names, each at most once, in any order; strings hold
// valid UTF-8 with no escapes or control characters; numbers are
// integers with no fraction, exponent or leading zero; no null. The
// encoding must be absent, "", "raw" or "base64", and base64 keys must
// decode. Anything else — escapes, field names differing only in case,
// duplicate or unknown fields, null, other numbers, trailing data — is
// left to the reference decoder.
func (b *Batch) Scan(body []byte, shape Shape) bool {
	b.Reset()
	s := scanner{data: body}
	var seen int
	var enc span // absent: ""
	ok := s.object(func(name []byte) bool {
		f := fieldOf(name, shape)
		if f == 0 || seen&f != 0 {
			return false
		}
		seen |= f
		var ok bool
		switch f {
		case fieldKeys:
			ok = s.array(func() bool {
				sp, ok := s.str()
				b.spans = append(b.spans, sp)
				return ok
			})
		case fieldItems:
			ok = s.array(func() bool { return s.item(b) })
		case fieldSet:
			s.ws()
			b.Set, ok = s.int()
		case fieldEncoding:
			enc, ok = s.str()
		}
		return ok
	})
	if !ok {
		return false
	}
	s.ws()
	if s.i != len(body) {
		return false
	}
	switch string(body[enc.start:enc.end]) {
	case "", "raw":
		for _, sp := range b.spans {
			b.Keys = append(b.Keys, body[sp.start:sp.end:sp.end])
		}
		return true
	case "base64":
		return b.decodeBase64(body)
	}
	return false
}

// decodeBase64 decodes every key span into the arena.
func (b *Batch) decodeBase64(body []byte) bool {
	need := 0
	for _, sp := range b.spans {
		need += base64.StdEncoding.DecodedLen(sp.end - sp.start)
	}
	if cap(b.arena) < need {
		b.arena = make([]byte, need)
	}
	arena := b.arena[:need]
	off := 0
	for _, sp := range b.spans {
		n, err := base64.StdEncoding.Decode(arena[off:], body[sp.start:sp.end])
		if err != nil {
			return false
		}
		b.Keys = append(b.Keys, arena[off:off+n:off+n])
		off += n
	}
	return true
}

// scanner walks a JSON document by hand over the canonical grammar.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after optional whitespace, if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string with no escapes and returns its content.
func (s *scanner) str() (span, bool) {
	if !s.next('"') {
		return span{}, false
	}
	start, ascii := s.i, true
	for j := start; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			if !ascii && !utf8.Valid(s.data[start:j]) {
				return span{}, false
			}
			s.i = j + 1
			return span{start, j}, true
		case c == '\\' || c < 0x20:
			return span{}, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return span{}, false
}

// maxDigits keeps a canonical integer within int64 (and a uint64
// tally within range): longer numbers go to the reference decoder.
const maxDigits = 18

// uint consumes an unsigned integer with no leading zero.
func (s *scanner) uint() (uint64, bool) {
	start := s.i
	var n uint64
	for s.i < len(s.data) && s.data[s.i] >= '0' && s.data[s.i] <= '9' {
		n = n*10 + uint64(s.data[s.i]-'0')
		s.i++
	}
	digits := s.i - start
	if digits == 0 || digits > maxDigits || (digits > 1 && s.data[start] == '0') {
		return 0, false
	}
	return n, true
}

// int consumes an integer that fits an int.
func (s *scanner) int() (int, bool) {
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	u, ok := s.uint()
	v := int64(u)
	if neg {
		v = -v
	}
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// array consumes a JSON array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// object consumes a JSON object, calling field with each field's name
// to consume its value.
func (s *scanner) object(field func(name []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		name, ok := s.str()
		if !ok || !s.next(':') || !field(s.data[name.start:name.end]) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// item consumes one {"key":…,"count":…} object.
func (s *scanner) item(b *Batch) bool {
	var key span // absent fields: "" and 0
	var count int
	var seenKey, seenCount bool
	ok := s.object(func(name []byte) bool {
		switch string(name) {
		case "key":
			if seenKey {
				return false
			}
			var ok bool
			key, ok = s.str()
			seenKey = true
			return ok
		case "count":
			if seenCount {
				return false
			}
			s.ws()
			var ok bool
			count, ok = s.int()
			seenCount = true
			return ok
		}
		return false
	})
	b.spans = append(b.spans, key)
	b.Counts = append(b.Counts, count)
	return ok
}

// Client-side scanners for the daemon's success responses. Each
// accepts the bytes the daemon's encoders above write, give or take
// whitespace JSON ignores, and reports false for anything else; the
// client then falls back to json.Unmarshal.

// ScanResults decodes a membership contains response.
func ScanResults(data []byte) ([]bool, bool) {
	s := scanner{data: data}
	if !s.lit(`{"results":`) {
		return nil, false
	}
	out := make([]bool, 0, s.count(','))
	ok := s.array(func() bool {
		switch {
		case s.lit("true"):
			out = append(out, true)
		case s.lit("false"):
			out = append(out, false)
		default:
			return false
		}
		return true
	})
	if !ok || !s.end("}") {
		return nil, false
	}
	return out, true
}

// ScanCounts decodes a multiplicity count response.
func ScanCounts(data []byte) ([]int, bool) {
	s := scanner{data: data}
	if !s.lit(`{"counts":`) {
		return nil, false
	}
	out := make([]int, 0, s.count(','))
	ok := s.array(func() bool {
		n, ok := s.int()
		out = append(out, n)
		return ok
	})
	if !ok || !s.end("}") {
		return nil, false
	}
	return out, true
}

// ScanMasks decodes a v2 classify response to its region masks.
func ScanMasks(data []byte) ([]byte, bool) {
	s := scanner{data: data}
	if !s.lit(`{"results":`) {
		return nil, false
	}
	out := make([]byte, 0, s.count('}'))
	ok := s.array(func() bool {
		// A fragment holds no '}' before its closing one.
		n := bytes.IndexByte(s.data[s.i:], '}')
		if n < 0 {
			return false
		}
		mask, ok := maskOf[string(s.data[s.i:s.i+n+1])]
		s.i += n + 1
		out = append(out, mask)
		return ok
	})
	if !ok || !s.end("}") {
		return nil, false
	}
	return out, true
}

// ScanTally decodes a {"<field>":n} write response.
func ScanTally(data []byte, field string) (uint64, bool) {
	s := scanner{data: data}
	if !s.lit(`{"`) || !s.lit(field) || !s.lit(`":`) {
		return 0, false
	}
	n, ok := s.uint()
	return n, ok && s.end("}")
}

// lit consumes lit if the data continues with it exactly.
func (s *scanner) lit(lit string) bool {
	if len(s.data)-s.i < len(lit) || string(s.data[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// end consumes the closing lit and reports whether only JSON
// whitespace follows it.
func (s *scanner) end(lit string) bool {
	if !s.lit(lit) {
		return false
	}
	s.ws()
	return s.i == len(s.data)
}

// count returns an upper-bound capacity hint: one more than the
// occurrences of c in the rest of the data.
func (s *scanner) count(c byte) int {
	return bytes.Count(s.data[s.i:], []byte{c}) + 1
}
