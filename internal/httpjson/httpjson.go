// Package httpjson is the wire format of the daemon's HTTP/JSON data
// plane — membership add/contains, association add/remove/classify and
// multiplicity add/remove/count, on /v1 and /v2 — in one place, for
// both the daemon (internal/server) and the Go client (client).
//
// Each shape exists twice. The struct types are the definition:
// encoding/json over them is the reference, and every error status and
// message the daemon returns comes from that path. The append encoders and the single-pass scanners are the fast
// path: they produce and accept the same bytes without reflection or
// per-key allocations. A scanner accepts only the canonical grammar
// (see Batch.Scan and the Scan* functions) and reports false for
// anything else, and the caller then runs the reference decoder on the
// same bytes. The encoders' output is byte-identical to encoding/json
// over the reference types, pinned by this package's tests.
package httpjson

import (
	"encoding/json"
	"io"

	"shbf/internal/core"
)

// The request shapes. Each exported name is an alias of an unexported
// type because encoding/json names the type in its error messages
// ("Go struct field setBatch.set …"), which the API has always sent
// with these lower-case names.
type (
	KeyBatch     = keyBatch
	CountedBatch = countedBatch
	SetBatch     = setBatch
)

// keyBatch is the common request shape: a batch of element keys, read
// as raw bytes ("encoding": "raw", the default) or base64
// ("encoding": "base64") for binary IDs like the paper's 13-byte
// 5-tuple flow IDs.
type keyBatch struct {
	Keys     []string `json:"keys"`
	Encoding string   `json:"encoding,omitempty"`
}

// countedItem is one multiplicity update: count defaults to 1.
type countedItem struct {
	Key   string `json:"key"`
	Count int    `json:"count,omitempty"`
}

// countedBatch is the multiplicity add/remove request shape.
type countedBatch struct {
	Items    []countedItem `json:"items"`
	Encoding string        `json:"encoding,omitempty"`
}

// setBatch targets one of the two association sets.
type setBatch struct {
	Set      int      `json:"set"`
	Keys     []string `json:"keys"`
	Encoding string   `json:"encoding,omitempty"`
}

// regionAnswer is the JSON shape of one classify result. Candidates
// lists the possible atomic regions ("s1-only", "both", "s2-only"); an
// empty list is a definite non-member of both sets. Clear mirrors the
// paper's "clear answer" (exactly one candidate). Mask is the raw
// candidate-region bitmask (core.Region), the form the native client
// round-trips; the v1 shim omits it for byte-compatibility.
type regionAnswer struct {
	Region     string   `json:"region"`
	Candidates []string `json:"candidates"`
	Clear      bool     `json:"clear"`
	InS1       bool     `json:"in_s1"`
	InS2       bool     `json:"in_s2"`
	Mask       *uint8   `json:"mask,omitempty"`
}

// regionJSON is the classify answer for region r.
func regionJSON(r core.Region, withMask bool) regionAnswer {
	cands := make([]string, 0, 3)
	if r.Contains(core.RegionS1Only) {
		cands = append(cands, "s1-only")
	}
	if r.Contains(core.RegionBoth) {
		cands = append(cands, "both")
	}
	if r.Contains(core.RegionS2Only) {
		cands = append(cands, "s2-only")
	}
	ans := regionAnswer{
		Region:     r.String(),
		Candidates: cands,
		Clear:      r.Clear(),
		InS1:       r.InS1(),
		InS2:       r.InS2(),
	}
	if withMask {
		mask := uint8(r)
		ans.Mask = &mask
	}
	return ans
}

// numRegions bounds the candidate masks: three atomic regions, one bit
// each.
const numRegions = 8

// regionFragments holds the marshalled regionAnswer of every mask,
// without ([0]) and with ([1]) the mask field, rendered by
// encoding/json itself so the fast encoder cannot drift from it.
var regionFragments [2][numRegions][]byte

// maskOf maps a with-mask fragment back to its mask: the client's
// classify scanner looks each result up here.
var maskOf = make(map[string]uint8, numRegions)

func init() {
	for withMask := range 2 {
		for r := range numRegions {
			regionFragments[withMask][r] = regionFragment(core.Region(r), withMask == 1)
		}
	}
	for r, frag := range regionFragments[1] {
		maskOf[string(frag)] = uint8(r)
	}
}

func regionFragment(r core.Region, withMask bool) []byte {
	b, err := json.Marshal(regionJSON(r, withMask))
	if err != nil {
		panic(err) // unreachable: the shape holds strings, bools and a uint8
	}
	return b
}

// ReadAll is io.ReadAll appending to buf, so a caller can read bodies
// into a reused buffer. Growth past cap(buf) is append's.
func ReadAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}
