package core

import (
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/counters"
	"shbf/internal/hashing"
	"shbf/internal/hashtable"
	"shbf/internal/memmodel"
)

// CountingAssociation is CShBF_A (paper Section 4.3): a dynamically
// updatable ShBF_A. It maintains the membership of S1 and S2 (the
// tables T1 and T2 of the construction phase, Section 4.1, kept
// off-chip), an array C of counters, and the query-side bit array B,
// synchronized after every update.
//
// T1 and T2 are fused into one exact table that maps each element of
// S1 ∪ S2 to a membership mask (inS1 | inS2), so an update reads the
// element's old region and commits its new one with a single probe,
// and an element in both sets stores its key once. The serialized form
// still carries T1 and T2 as two tables.
//
// The paper describes inserts/deletes as "after querying T1 and T2 and
// determining whether o(e) = 0, o1(e), or o2(e), increment/decrement the
// corresponding k counters". When an update moves an element between
// regions — e.g. inserting into S2 an element already in S1 moves it
// from S1−S2 to S1∩S2 — the old region's encoding must be removed and
// the new one added; CountingAssociation completes the paper's sketch
// with exactly that re-encoding.
type CountingAssociation struct {
	bits      *bitvec.Vector
	counts    *counters.Array
	sets      *hashtable.Table // element → inS1|inS2
	n1, n2    int
	m         int
	k         int
	wbar      int
	halfRange int
	fam       *hashing.Family
	seed      uint64
}

// Membership-mask bits of the fused T1/T2 table.
const (
	inS1 uint64 = 1 << iota
	inS2
)

// maskRegion maps a membership mask to its atomic region.
var maskRegion = [4]Region{RegionNone, RegionS1Only, RegionS2Only, RegionBoth}

// NewCountingAssociation returns an empty updatable association filter.
func NewCountingAssociation(m, k int, opts ...Option) (*CountingAssociation, error) {
	cfg, err := buildConfig(KindCountingAssociation, opts)
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d must be ≥ 1", k)
	}
	if cfg.maxOffset < 3 || cfg.maxOffset > 64 {
		return nil, fmt.Errorf("core: max offset w̄ = %d out of range [3,64]", cfg.maxOffset)
	}
	total := m + cfg.maxOffset - 1
	a := &CountingAssociation{
		bits:      bitvec.New(total),
		counts:    counters.New(total, cfg.counterWidth),
		sets:      hashtable.New(cfg.seed + 1),
		m:         m,
		k:         k,
		wbar:      cfg.maxOffset,
		halfRange: (cfg.maxOffset - 1) / 2,
		fam:       hashing.NewFamily(k+2, cfg.seed),
		seed:      cfg.seed,
	}
	a.bits.SetCounter(cfg.counter)
	return a, nil
}

// SetUpdateCounter attaches a memory-access counter to the off-chip
// counter array C.
func (a *CountingAssociation) SetUpdateCounter(mc *memmodel.Counter) {
	a.counts.SetCounter(mc)
}

// N1, N2 report the current distinct sizes of S1 and S2.
func (a *CountingAssociation) N1() int { return a.n1 }
func (a *CountingAssociation) N2() int { return a.n2 }

// InsertS1 adds e to S1 (no-op if already present), re-encoding e's
// region if it changed. ErrCounterSaturated is returned if a counter
// would overflow; the filter is left unchanged in that case.
func (a *CountingAssociation) InsertS1(e []byte) error {
	return a.InsertS1Digest(e, a.fam.Digest(e))
}

// InsertS1Digest is InsertS1 for a caller that already digested e
// (the sharded layer, which routed on the digest). d must be e's
// hashing.KeyDigest; the raw key is still needed for the membership
// table.
func (a *CountingAssociation) InsertS1Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS1, true)
}

// InsertS2 adds e to S2 (no-op if already present).
func (a *CountingAssociation) InsertS2(e []byte) error {
	return a.InsertS2Digest(e, a.fam.Digest(e))
}

// InsertS2Digest is InsertS2 for an already digested key.
func (a *CountingAssociation) InsertS2Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS2, true)
}

// DeleteS1 removes e from S1, returning ErrNotStored if absent.
func (a *CountingAssociation) DeleteS1(e []byte) error {
	return a.DeleteS1Digest(e, a.fam.Digest(e))
}

// DeleteS1Digest is DeleteS1 for an already digested key.
func (a *CountingAssociation) DeleteS1Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS1, false)
}

// DeleteS2 removes e from S2, returning ErrNotStored if absent.
func (a *CountingAssociation) DeleteS2(e []byte) error {
	return a.DeleteS2Digest(e, a.fam.Digest(e))
}

// DeleteS2Digest is DeleteS2 for an already digested key.
func (a *CountingAssociation) DeleteS2Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS2, false)
}

// update sets (insert) or clears the membership bit of e with one probe
// of the membership table, and re-encodes e under its new region:
// increment the new offset's k counters (setting bits), then decrement
// the old offset's (clearing bits that reach zero). Headroom is checked
// before anything is written, so a failed update changes nothing. All
// positions derive from the single digest d.
func (a *CountingAssociation) update(e []byte, d hashing.Digest, bit uint64, insert bool) error {
	c, old, _ := a.sets.Find(e)
	mask := old &^ bit
	switch {
	case insert && old&bit != 0:
		return nil
	case !insert && old&bit == 0:
		return ErrNotStored
	case insert:
		mask |= bit
	}
	// Every accepted update flips one bit, so e's region changes.
	oldRegion, newRegion := maskRegion[old], maskRegion[mask]
	if newRegion != RegionNone {
		o := a.offsetFor(d, newRegion)
		for i := 0; i < a.k; i++ {
			if a.counts.Peek(a.fam.ModFromDigest(i, d, a.m)+o) == a.counts.Max() {
				return ErrCounterSaturated
			}
		}
	}
	if mask == 0 {
		a.sets.Remove(c)
	} else {
		a.sets.Store(c, e, mask)
	}
	n := &a.n1
	if bit == inS2 {
		n = &a.n2
	}
	if insert {
		*n++
	} else {
		*n--
	}
	if newRegion != RegionNone {
		o := a.offsetFor(d, newRegion)
		for i := 0; i < a.k; i++ {
			p := a.fam.ModFromDigest(i, d, a.m) + o
			a.counts.Inc(p)
			a.bits.Set(p)
		}
	}
	if oldRegion != RegionNone {
		o := a.offsetFor(d, oldRegion)
		for i := 0; i < a.k; i++ {
			p := a.fam.ModFromDigest(i, d, a.m) + o
			if v, ok := a.counts.Dec(p); ok && v == 0 {
				a.bits.Clear(p)
			}
		}
	}
	return nil
}

// offsetFor maps an atomic region to its encoding offset for the
// element digested as d.
func (a *CountingAssociation) offsetFor(d hashing.Digest, r Region) int {
	switch r {
	case RegionS1Only:
		return 0
	case RegionBoth:
		return a.offset1(d)
	default: // RegionS2Only
		return a.offset2(d)
	}
}

func (a *CountingAssociation) offset1(d hashing.Digest) int {
	return hashing.Reduce(a.fam.FromDigest(a.k, d), a.halfRange) + 1
}

func (a *CountingAssociation) offset2(d hashing.Digest) int {
	return a.offset1(d) + hashing.Reduce(a.fam.FromDigest(a.k+1, d), a.halfRange) + 1
}

// Query returns the candidate-region mask for e from the bit array B,
// with the same semantics as Association.Query.
func (a *CountingAssociation) Query(e []byte) Region {
	return a.QueryDigest(a.fam.Digest(e))
}

// QueryDigest answers Query for the element whose digest is d.
func (a *CountingAssociation) QueryDigest(d hashing.Digest) Region {
	o1 := a.offset1(d)
	o2 := o1 + hashing.Reduce(a.fam.FromDigest(a.k+1, d), a.halfRange) + 1

	cand := RegionS1Only | RegionBoth | RegionS2Only
	for i := 0; i < a.k && cand != RegionNone; i++ {
		win := a.bits.Window(a.fam.ModFromDigest(i, d, a.m), a.wbar)
		// Branchless pruning; see Association.Query.
		survived := Region(win&1) |
			Region(win>>uint(o1)&1)<<1 |
			Region(win>>uint(o2)&1)<<2
		cand &= survived
	}
	return cand
}
