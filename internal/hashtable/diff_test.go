package hashtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkInvariants verifies the table's layout: every slot points at a
// distinct live entry under that key's tag, probe distances obey the
// Robin Hood order, every key is found where it sits, and the arena
// holds exactly the live keys plus the dead bytes.
func checkInvariants(t testing.TB, tab *Table) {
	t.Helper()
	if len(tab.slots) > 0 && maxLoad(len(tab.entries), len(tab.slots)) {
		t.Fatalf("load %d/%d above 7/8", len(tab.entries), len(tab.slots))
	}
	seen := make([]bool, len(tab.entries))
	live := 0
	mask := len(tab.slots) - 1
	for pos, s := range tab.slots {
		if s == 0 {
			continue
		}
		i := int(s&math.MaxUint32) - 1
		if i < 0 || i >= len(tab.entries) || seen[i] {
			t.Fatalf("slot %d: bad or repeated entry index %d", pos, i)
		}
		seen[i] = true
		k := tab.key(i)
		live += spanLen(len(k))
		if tag := uint32(tab.hasher.Sum64(k)); uint32(s>>32) != tag {
			t.Fatalf("slot %d: tag %x, key hashes to %x", pos, uint32(s>>32), tag)
		}
		if next := tab.slots[(pos+1)&mask]; next != 0 && tab.distance(next, (pos+1)&mask) > tab.distance(s, pos)+1 {
			t.Fatalf("slot %d: Robin Hood order broken", pos)
		}
		if c, _, ok := tab.Find(k); !ok || c.pos != pos || c.idx != i {
			t.Fatalf("slot %d: Find(key) = (%+v, %v)", pos, c, ok)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("entry %d has no slot", i)
		}
	}
	if live+tab.dead != len(tab.arena) {
		t.Fatalf("arena %d B, want %d live + %d dead", len(tab.arena), live, tab.dead)
	}
}

// checkMirrors verifies Len, Get and Range against the reference map.
func checkMirrors(t testing.TB, tab *Table, ref map[string]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := tab.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%x) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	n := 0
	tab.Range(func(k []byte, v uint64) bool {
		n++
		if want, ok := ref[string(k)]; !ok || want != v {
			t.Fatalf("Range saw %x=%d, map has (%d,%v)", k, v, want, ok)
		}
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range visited %d keys, want %d", n, len(ref))
	}
}

// applyOp runs one operation on the table and the map and fails on any
// disagreement in the results.
func applyOp(t testing.TB, tab *Table, ref map[string]uint64, op int, key []byte, v uint64) {
	t.Helper()
	want, present := ref[string(key)]
	switch op {
	case 0: // Put
		tab.Put(key, v)
		ref[string(key)] = v
	case 1: // Add
		if got := tab.Add(key, v); got != want+v {
			t.Fatalf("Add(%x, %d) = %d, want %d", key, v, got, want+v)
		}
		ref[string(key)] = want + v
	case 2: // Sub
		got, ok := tab.Sub(key, v)
		switch {
		case !present:
		case want <= v:
			delete(ref, string(key))
			want = 0
		default:
			want -= v
			ref[string(key)] = want
		}
		if got != want || ok != present {
			t.Fatalf("Sub(%x, %d) = (%d,%v), want (%d,%v)", key, v, got, ok, want, present)
		}
	case 3: // Delete
		if ok := tab.Delete(key); ok != present {
			t.Fatalf("Delete(%x) = %v, want %v", key, ok, present)
		}
		delete(ref, string(key))
	default: // Get
		if got, ok := tab.Get(key); ok != present || got != want {
			t.Fatalf("Get(%x) = (%d,%v), want (%d,%v)", key, got, ok, want, present)
		}
	}
}

// flowKey returns a 13-byte key (the size of an IPv4 5-tuple) for i.
func flowKey(dst []byte, i int) []byte {
	dst = binary.BigEndian.AppendUint64(dst[:0], uint64(i)*0x9e3779b97f4a7c15)
	dst = binary.BigEndian.AppendUint32(dst, uint32(i))
	return append(dst, byte(i>>3))
}

func TestDifferentialAgainstMap(t *testing.T) {
	// 1.2M mixed operations on 13-byte keys. The phases grow the table
	// through several doublings, shrink it (dead keys then outnumber live
	// ones, forcing compactions), churn at a steady size, and grow again.
	phases := []struct {
		ops, space int
		mix        [4]int // cumulative % thresholds for Put, Add, Sub, Delete; rest Get
	}{
		{300_000, 200_000, [4]int{45, 85, 90, 92}},
		{300_000, 200_000, [4]int{5, 10, 55, 95}},
		{300_000, 20_000, [4]int{20, 45, 70, 90}},
		{300_000, 400_000, [4]int{40, 80, 85, 88}},
	}
	tab := New(13)
	ref := map[string]uint64{}
	rng := rand.New(rand.NewSource(13))
	key := make([]byte, 0, 13)
	growths, compactions := 0, 0
	done := 0
	for _, ph := range phases {
		for n := 0; n < ph.ops; n++ {
			key = flowKey(key, rng.Intn(ph.space))
			r, op := rng.Intn(100), 4
			for j, th := range ph.mix {
				if r < th {
					op = j
					break
				}
			}
			slots, dead := len(tab.slots), tab.dead
			applyOp(t, tab, ref, op, key, uint64(rng.Intn(8)))
			if len(tab.slots) > slots {
				growths++
			}
			if dead > 0 && tab.dead == 0 {
				compactions++
			}
			if done++; done%100_000 == 0 {
				checkMirrors(t, tab, ref)
				checkInvariants(t, tab)
			}
		}
	}
	checkMirrors(t, tab, ref)
	checkInvariants(t, tab)
	if growths < 3 || compactions < 3 {
		t.Fatalf("run saw %d growths and %d compactions, want ≥ 3 of each", growths, compactions)
	}
	t.Logf("%d ops: %d growths, %d compactions, %d keys, longest probe %d", done, growths, compactions, tab.Len(), tab.MaxChainLength())
}

func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 6, 3, 1, 0, 2, 2, 9})
	f.Add(bytes.Repeat([]byte{0x10, 0x33, 0x01, 0x21, 0x34, 0x02, 0x03, 0x33, 0x00}, 20))
	f.Add([]byte("a fuzz seed with enough bytes to grow the table past a few doublings"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each op is three bytes: opcode (low 3 bits; the next two pick
		// a key length 0–3), key byte, value.
		tab := New(5)
		ref := map[string]uint64{}
		for ; len(data) >= 3; data = data[3:] {
			key := bytes.Repeat(data[1:2], int(data[0]>>3)%4)
			if len(key) > 0 {
				key[0] ^= data[0] >> 5
			}
			applyOp(t, tab, ref, int(data[0]&7)%5, key, uint64(data[2]))
		}
		checkMirrors(t, tab, ref)
		checkInvariants(t, tab)
		round := New(6)
		if _, err := round.DecodeInto(tab.AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
		checkMirrors(t, round, ref)
		if string(round.AppendBinary(nil)) != string(tab.AppendBinary(nil)) {
			t.Fatal("round trip changed the encoding")
		}
	})
}

func BenchmarkFlowKeyChurn(b *testing.B) {
	// Insert-then-delete churn on 13-byte keys at a steady 64k live keys.
	tab := New(1)
	key := make([]byte, 0, 13)
	for i := 0; i < 1<<16; i++ {
		tab.Put(flowKey(key, i), 1)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		tab.Add(flowKey(key, (i+1<<16)), 1)
		tab.Delete(flowKey(key, i))
	}
	_ = fmt.Sprint(tab.Len())
}
