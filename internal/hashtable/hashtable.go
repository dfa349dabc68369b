// Package hashtable implements the exact hash table substrate the
// paper leans on in two places:
//
//   - ShBF_A construction builds tables T1 and T2 over S1 and S2 to
//     decide each element's region and hence its offset (Section 4.1).
//   - ShBF_X stores each element's count "in a hash table using the
//     simplest collision handling method called collision chain"
//     (Section 5.1) and consults it for no-false-negative updates
//     (Section 5.3.2, Figure 5).
//
// The table maps byte-string elements to uint64 values (counts, or set
// membership masks). It departs from the paper's collision chain: the
// paper only needs an exact table, and a chain costs a heap node and a
// key string per entry, two dependent loads per comparison, and a GC
// mark per entry. This table instead holds no pointers at all:
//
//   - a power-of-two slot array of 64-bit words, each a 32-bit hash tag
//     above a 32-bit entry index (0 marks an empty slot), probed
//     linearly in Robin Hood order, with backward-shift deletion;
//   - a dense entry array of (value, key offset) pairs;
//   - a key arena holding each key behind its uvarint length. Deleted
//     keys leave dead bytes that are compacted away when they outnumber
//     the live ones and whenever the slot array is rebuilt.
//
// A slot's home position is its tag masked to the table size, so a
// rebuild re-places every slot without rehashing a key, and a lookup
// touches an entry and its key only on a full 32-bit tag match.
//
// Find returns a Cursor for one probe; Store and Remove commit through
// it without probing again, so a read-modify-write update (ShBF_X's
// z → z±1, CShBF_A's membership masks) costs one probe.
//
// In the paper's architecture this structure lives in off-chip DRAM;
// an optional memmodel.Counter charges one read per slot probed and
// one write per committed update, so update-path costs can be reported.
package hashtable

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"

	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

const minSlots = 8

// maxLoad reports whether n entries exceed the 7/8 load bound of a slot
// array of the given length.
func maxLoad(n, slots int) bool { return n*8 > slots*7 }

type entry struct {
	value uint64
	off   uint64 // arena offset of the key's uvarint length
}

// Table is an open-addressing hash table from byte strings to uint64
// values. Use New; the zero value is unusable.
type Table struct {
	slots   []uint64 // tag<<32 | entry index+1; 0 = empty
	entries []entry
	arena   []byte
	dead    int // arena bytes of removed keys
	hasher  hashing.Hasher
	acc     *memmodel.Counter
}

// Cursor is the position a Find stopped at: the key's slot, or the
// slot where the key would be inserted. It is valid until the table is
// next mutated.
type Cursor struct {
	tag  uint32
	pos  int
	dist int // probe distance of pos from the tag's home slot
	idx  int // entry index; -1 when the key is absent
}

// New returns an empty table seeded for its internal hash function.
// The slot array is allocated on first insert.
func New(seed uint64) *Table {
	return &Table{hasher: hashing.New(seed)}
}

// SetCounter attaches a DRAM access counter; nil detaches.
func (t *Table) SetCounter(c *memmodel.Counter) { t.acc = c }

// Len returns the number of stored keys.
func (t *Table) Len() int { return len(t.entries) }

// Find probes for key once and returns the cursor for Store or Remove,
// the value stored under key, and whether it was present.
func (t *Table) Find(key []byte) (Cursor, uint64, bool) {
	c := Cursor{tag: uint32(t.hasher.Sum64(key)), idx: -1}
	if len(t.slots) == 0 {
		return c, 0, false
	}
	mask := len(t.slots) - 1
	pos := int(c.tag) & mask
	for dist := 0; ; dist++ {
		t.acc.AddReads(1)
		s := t.slots[pos]
		if s == 0 || t.distance(s, pos) < dist {
			c.pos, c.dist = pos, dist
			return c, 0, false
		}
		if uint32(s>>32) == c.tag {
			i := int(uint32(s)) - 1
			if bytes.Equal(t.key(i), key) {
				c.pos, c.dist, c.idx = pos, dist, i
				return c, t.entries[i].value, true
			}
		}
		pos = (pos + 1) & mask
	}
}

// Store sets the value under the key c was found for, inserting the
// key if c found it absent. key must be the key passed to Find.
func (t *Table) Store(c Cursor, key []byte, value uint64) {
	t.acc.AddWrites(1)
	if c.idx >= 0 {
		t.entries[c.idx].value = value
		return
	}
	idx := len(t.entries)
	if idx+1 > math.MaxUint32 {
		panic("hashtable: more than 2^32-1 keys in one table")
	}
	if len(t.slots) == 0 || maxLoad(idx+1, len(t.slots)) {
		t.grow()
		c.pos, c.dist = int(c.tag)&(len(t.slots)-1), 0
	}
	t.entries = append(t.entries, entry{value: value, off: uint64(len(t.arena))})
	t.arena = binary.AppendUvarint(t.arena, uint64(len(key)))
	t.arena = append(t.arena, key...)
	t.place(uint64(c.tag)<<32|uint64(idx+1), c.pos, c.dist)
}

// Remove deletes the key c was found for; it is a no-op if c found the
// key absent.
func (t *Table) Remove(c Cursor) {
	if c.idx < 0 {
		return
	}
	t.acc.AddWrites(1)
	mask := len(t.slots) - 1
	// Backward shift: pull each following displaced slot one step back
	// until a slot that is empty or already at its home.
	pos := c.pos
	for {
		next := (pos + 1) & mask
		s := t.slots[next]
		if s == 0 || t.distance(s, next) == 0 {
			t.slots[pos] = 0
			break
		}
		t.slots[pos] = s
		pos = next
	}
	t.dead += spanLen(len(t.key(c.idx)))
	// Keep the entry array dense: the last entry fills the hole, and
	// its slot is re-pointed.
	last := len(t.entries) - 1
	if c.idx != last {
		p := t.slotOf(last)
		t.entries[c.idx] = t.entries[last]
		t.slots[p] = t.slots[p]&^math.MaxUint32 | uint64(c.idx+1)
	}
	t.entries = t.entries[:last]
	if 2*t.dead > len(t.arena) {
		t.compact()
	}
}

// Put stores value under key, replacing any existing value.
func (t *Table) Put(key []byte, value uint64) {
	c, _, _ := t.Find(key)
	t.Store(c, key, value)
}

// Get returns the value stored under key and whether it was present.
func (t *Table) Get(key []byte) (uint64, bool) {
	_, v, ok := t.Find(key)
	return v, ok
}

// Contains reports whether key is present.
func (t *Table) Contains(key []byte) bool {
	_, _, ok := t.Find(key)
	return ok
}

// Add adds delta to the value under key (inserting it at delta if
// absent) and returns the new value. This is the count-maintenance
// primitive of ShBF_X updates; it probes once.
func (t *Table) Add(key []byte, delta uint64) uint64 {
	c, v, _ := t.Find(key)
	v += delta
	t.Store(c, key, v)
	return v
}

// Sub subtracts delta from the value under key. If the value would reach
// zero (or underflow) the key is removed and 0 is returned. The boolean
// reports whether the key was present. It probes once.
func (t *Table) Sub(key []byte, delta uint64) (uint64, bool) {
	c, v, ok := t.Find(key)
	if !ok {
		return 0, false
	}
	if v <= delta {
		t.Remove(c)
		return 0, true
	}
	v -= delta
	t.Store(c, key, v)
	return v, true
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key []byte) bool {
	c, _, ok := t.Find(key)
	t.Remove(c)
	return ok
}

// Range calls fn for every (key, value) pair until fn returns false.
// Iteration order is unspecified. key aliases the table's storage and
// is valid only during the call; the table must not be mutated during
// iteration.
func (t *Table) Range(fn func(key []byte, value uint64) bool) {
	for i := range t.entries {
		if !fn(t.key(i), t.entries[i].value) {
			return
		}
	}
}

// MaxChainLength returns the longest probe sequence any stored key
// needs: the number of slots a lookup of that key reads. It is the
// open-addressing counterpart of the paper's collision-chain length.
func (t *Table) MaxChainLength() int {
	longest := 0
	for pos, s := range t.slots {
		if s != 0 {
			longest = max(longest, t.distance(s, pos)+1)
		}
	}
	return longest
}

// distance returns how far the slot word s at pos sits from its home.
func (t *Table) distance(s uint64, pos int) int {
	return (pos - int(uint32(s>>32))) & (len(t.slots) - 1)
}

// key returns entry i's key, capped so an append cannot spill into the
// arena. Keys under 128 bytes have a one-byte length and skip the
// uvarint decoder.
func (t *Table) key(i int) []byte {
	off := t.entries[i].off
	if n := uint64(t.arena[off]); n < 0x80 {
		return t.arena[off+1 : off+1+n : off+1+n]
	}
	return t.longKey(off)
}

func (t *Table) longKey(off uint64) []byte {
	n, w := binary.Uvarint(t.arena[off:])
	start := off + uint64(w)
	return t.arena[start : start+n : start+n]
}

// spanLen returns the arena bytes a key of length n occupies: its
// uvarint length prefix and the key itself.
func spanLen(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// slotOf returns the slot position that points at entry i.
func (t *Table) slotOf(i int) int {
	mask := len(t.slots) - 1
	want := uint64(i + 1)
	pos := int(uint32(t.hasher.Sum64(t.key(i)))) & mask
	for t.slots[pos]&math.MaxUint32 != want {
		pos = (pos + 1) & mask
	}
	return pos
}

// place inserts slot word s, probing from pos at distance dist. Where a
// resident sits nearer its home than s would, s takes its slot and the
// resident is carried onward instead: the Robin Hood rule.
func (t *Table) place(s uint64, pos, dist int) {
	mask := len(t.slots) - 1
	for {
		cur := t.slots[pos]
		if cur == 0 {
			t.slots[pos] = s
			return
		}
		if d := t.distance(cur, pos); d < dist {
			t.slots[pos], s, dist = s, cur, d
		}
		pos = (pos + 1) & mask
		dist++
	}
}

// grow doubles the slot array and re-places every slot from its tag;
// no key is rehashed. The arena is compacted on the way.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(2*len(old), minSlots))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s != 0 {
			t.place(s, int(uint32(s>>32))&mask, 0)
		}
	}
	if t.dead > 0 {
		t.compact()
	}
}

// compact copies the live keys into a fresh arena, dropping the bytes
// of removed ones.
func (t *Table) compact() {
	arena := make([]byte, 0, len(t.arena)-t.dead)
	for i := range t.entries {
		k := t.key(i)
		t.entries[i].off = uint64(len(arena))
		arena = binary.AppendUvarint(arena, uint64(len(k)))
		arena = append(arena, k...)
	}
	t.arena, t.dead = arena, 0
}
