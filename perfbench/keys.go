package main

import (
	"encoding/binary"
	"math"

	"shbf"
)

// keyLen is the paper's element size: a 13-byte 5-tuple flow ID.
const keyLen = 13

// Key spaces. A key is a pure function of (seed, space, index) and the
// destination-IP field carries space<<28 | index, so keys of different
// spaces or indices never collide and the exact model is index
// arithmetic: preloaded membership keys are exactly space spMember,
// indices [0, n), and so on.
const (
	spMember   = 0 // membership preload
	spAssoc    = 1 // association preload; the region follows the index
	spMult     = 2 // multiplicity preload; the count follows the index
	spNon      = 3 // never inserted anywhere: non-member probes
	spIngest   = 4 // keys-mode UDP agent
	spEnvelope = 5 // envelope-mode UDP agent
	spLadder   = 6 // writes replayed down the layer ladder
	spWrite    = 8 // 8 + 3*conn + kind: each connection's own writes
	maxIndex   = 1 << 28
)

// Write kinds, indexing a connection's write spaces.
const (
	kindMember = iota
	kindAssoc
	kindMult
)

func writeSpace(conn, kind int) uint32 { return uint32(spWrite + 3*conn + kind) }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashIndex is the per-key randomness shared by the key bytes, the
// association region and the Zipf count.
func hashIndex(seed uint64, space, idx uint32) uint64 {
	return mix64(seed*0x9e3779b97f4a7c15 ^ uint64(space)<<32 ^ uint64(idx))
}

// putKey writes the flow ID for (seed, space, idx) into dst[:keyLen].
func putKey(dst []byte, seed uint64, space, idx uint32) {
	h := hashIndex(seed, space, idx)
	binary.BigEndian.PutUint32(dst[0:4], uint32(h))           // source IP
	binary.BigEndian.PutUint32(dst[4:8], space<<28|idx)       // destination IP
	binary.BigEndian.PutUint16(dst[8:10], uint16(h>>32)|1024) // ephemeral source port
	binary.BigEndian.PutUint16(dst[10:12], servicePorts[(h>>48)%uint64(len(servicePorts))])
	switch (h >> 56) % 10 {
	case 0:
		dst[12] = 1 // ICMP
	case 1, 2:
		dst[12] = 17 // UDP
	default:
		dst[12] = 6 // TCP
	}
}

var servicePorts = []uint16{80, 443, 53, 22, 25, 123, 8080, 3306, 5432, 6379, 9092, 11211}

// keyBuf is a reusable batch of keys over one flat backing array.
type keyBuf struct {
	keys [][]byte
}

func newKeyBuf(n int) *keyBuf {
	flat := make([]byte, n*keyLen)
	b := &keyBuf{keys: make([][]byte, n)}
	for i := range b.keys {
		b.keys[i] = flat[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
	}
	return b
}

// assocRegion is the true region of preloaded association key idx:
// S1−S2, S1∩S2 and S2−S1 in turn.
func assocRegion(idx uint32) shbf.Region {
	switch idx % 3 {
	case 0:
		return shbf.RegionS1Only
	case 1:
		return shbf.RegionBoth
	}
	return shbf.RegionS2Only
}

// zipfS is the flow-size skew internal/trace documents for backbone
// links (s ≈ 1.2): multiplicities, and how often a flow is looked up,
// follow it.
const zipfS = 1.2

// zipfTable is the CDF of counts 1..c under P(count) ∝ count^−s.
type zipfTable []float64

func newZipfTable(c int, s float64) zipfTable {
	t := make(zipfTable, c)
	sum := 0.0
	for i := 1; i <= c; i++ {
		sum += math.Pow(float64(i), -s)
		t[i-1] = sum
	}
	for i := range t {
		t[i] /= sum
	}
	return t
}

// count maps a uniform u in [0,1) to a count in [1, c].
func (t zipfTable) count(u float64) int {
	lo, hi := 0, len(t)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u < t[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo + 1
}

// multCount is the true multiplicity of preloaded multiplicity key idx.
func (t zipfTable) multCount(seed uint64, idx uint32) int {
	u := float64(mix64(hashIndex(seed, spMult, idx))>>11) / (1 << 53)
	return t.count(u)
}

// Model checks. Each reports whether an answer breaks one of the
// paper's guarantees for a key whose truth the model knows.

// memberViolation: a member must never be reported absent.
func memberViolation(member, got bool) bool { return member && !got }

// assocViolation: the candidate set must contain the key's true region.
func assocViolation(truth, got shbf.Region) bool { return truth != shbf.RegionNone && got&truth == 0 }

// countViolation: a count must never be below the true multiplicity.
func countViolation(truth, got int) bool { return got < truth }
