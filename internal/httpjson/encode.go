package httpjson

import (
	"encoding/base64"
	"slices"
	"strconv"

	"shbf/internal/core"
)

// Daemon responses. Each appends the whole body, trailing newline
// included, exactly as json.NewEncoder(w).Encode writes the equivalent
// value; a handler sends it with one Write, as Encode does, so the
// HTTP framing is the same too.

// AppendResults appends {"results":[…]}, the membership contains
// response.
func AppendResults(dst []byte, results []bool) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, r)
	}
	return append(dst, "]}\n"...)
}

// AppendCounts appends {"counts":[…]}, the multiplicity count
// response.
func AppendCounts(dst []byte, counts []int) []byte {
	dst = append(dst, `{"counts":[`...)
	for i, c := range counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return append(dst, "]}\n"...)
}

// AppendTally appends {"<field>":n}, the write responses ("added" for
// membership, "applied" for association and multiplicity).
func AppendTally(dst []byte, field string, n int) []byte {
	dst = append(dst, `{"`...)
	dst = append(dst, field...)
	dst = append(dst, `":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "}\n"...)
}

// AppendRegions appends {"results":[regionAnswer…]}, the classify
// response; withMask selects the v2 shape.
func AppendRegions(dst []byte, regions []core.Region, withMask bool) []byte {
	frags := &regionFragments[0]
	if withMask {
		frags = &regionFragments[1]
	}
	dst = append(dst, `{"results":[`...)
	for i, r := range regions {
		if i > 0 {
			dst = append(dst, ',')
		}
		if int(r) < numRegions {
			dst = append(dst, frags[r]...)
		} else {
			dst = append(dst, regionFragment(r, withMask)...)
		}
	}
	return append(dst, "]}\n"...)
}

// Client requests. Each appends the bytes json.Marshal writes for the
// equivalent map — fields in sorted order, keys base64-encoded, no
// trailing newline. Base64 needs no JSON escaping, so it is appended
// in place.

// AppendKeysRequest appends {"encoding":"base64","keys":[…]}.
func AppendKeysRequest(dst []byte, keys [][]byte) []byte {
	dst = slices.Grow(dst, requestSize(keys, 0))
	dst = append(dst, `{"encoding":"base64","keys":`...)
	dst = appendKeys(dst, keys)
	return append(dst, '}')
}

// AppendSetRequest appends {"encoding":"base64","keys":[…],"set":n}.
func AppendSetRequest(dst []byte, set int, keys [][]byte) []byte {
	dst = slices.Grow(dst, requestSize(keys, 0))
	dst = append(dst, `{"encoding":"base64","keys":`...)
	dst = appendKeys(dst, keys)
	dst = append(dst, `,"set":`...)
	dst = strconv.AppendInt(dst, int64(set), 10)
	return append(dst, '}')
}

// AppendCountedRequest appends
// {"encoding":"base64","items":[{"count":c,"key":"…"}…]}. counts is
// per key (nil means 1 each); items with a zero count are left out,
// since a zero count applies nothing.
func AppendCountedRequest(dst []byte, keys [][]byte, counts []int) []byte {
	dst = slices.Grow(dst, requestSize(keys, len(`{"count":1,"key":""}`)))
	dst = append(dst, `{"encoding":"base64","items":[`...)
	first := true
	for i, k := range keys {
		count := 1
		if len(counts) != 0 {
			count = counts[i]
		}
		if count == 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, `{"count":`...)
		dst = strconv.AppendInt(dst, int64(count), 10)
		dst = append(dst, `,"key":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, k)
		dst = append(dst, `"}`...)
	}
	return append(dst, "]}"...)
}

// requestSize estimates a request's length, so that it is appended
// into one allocation: the base64 keys, each wrapped in perKey bytes
// (at least its quotes and comma), and the envelope.
func requestSize(keys [][]byte, perKey int) int {
	n := 64
	for _, k := range keys {
		n += base64.StdEncoding.EncodedLen(len(k)) + max(perKey, 3)
	}
	return n
}

func appendKeys(dst []byte, keys [][]byte) []byte {
	dst = append(dst, '[')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, k)
		dst = append(dst, '"')
	}
	return append(dst, ']')
}
