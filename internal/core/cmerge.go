package core

import "fmt"

// Counting-filter merge: the union operation of CShBF_X. Two counting
// multiplicity filters built from one geometry and seed place every
// element's multiplicity-z encoding at the same k positions, so their
// union is a counter-wise saturating add of C, an OR of B, and — in
// the safe mode — a per-key max over the exact tables.
//
// The sum-the-counts alternative (treating a merge as replaying one
// side's inserts into the other) is unsound for this encoding: an
// element at multiplicity z occupies exactly the k positions at offset
// z−1, so a filter claiming multiplicity z1+z2 would need an encoding
// at offset z1+z2−1 that neither side ever wrote. Saturating-add keeps
// both sides' encodings intact instead: the merged filter reports at
// least max(z1, z2) for every element — never an underestimate, the
// paper's one-sided guarantee — and the side with the smaller count
// leaves its encoding behind as garbage bits that only nudge the
// false-positive rate, exactly like a standard Bloom union's extra
// fill. Re-merging the same envelope is idempotent at the query level:
// B and the table are idempotent, and double-counted counters can only
// delay bit clearing on later deletes (the safe side).

// Merge folds other into f so that every element's reported
// multiplicity is at least the larger of the two filters' reports,
// with no false negatives introduced. The filters must share geometry
// (m, k, c), seed, counter width and update mode; otherwise an error
// is returned and f is unchanged. Self-merge is the identity.
func (f *CountingMultiplicity) Merge(other *CountingMultiplicity) error {
	if f.m != other.m || f.k != other.k || f.c != other.c || f.seed != other.seed {
		return fmt.Errorf("core: incompatible counting filters (m=%d/%d k=%d/%d c=%d/%d seed match=%v)",
			f.m, other.m, f.k, other.k, f.c, other.c, f.seed == other.seed)
	}
	if (f.table == nil) != (other.table == nil) {
		return fmt.Errorf("core: cannot merge safe and unsafe update modes")
	}
	if f == other {
		return nil
	}
	// Counters first: AddSaturating is the only step that can still
	// fail (width mismatch), and it must leave f untouched when it
	// does.
	if err := f.counts.AddSaturating(other.counts); err != nil {
		return err
	}
	f.bits.Or(other.bits)
	if f.table != nil {
		other.table.Range(func(key []byte, v uint64) bool {
			if c, cur, _ := f.table.Find(key); v > cur {
				f.table.Store(c, key, v)
			}
			return true
		})
	}
	return nil
}
