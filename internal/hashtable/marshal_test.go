package hashtable

import (
	"fmt"
	"testing"
)

func TestTableRoundTrip(t *testing.T) {
	tab := New(3)
	for i := 0; i < 1000; i++ {
		tab.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i*i))
	}
	buf := tab.AppendBinary(nil)

	got := New(3)
	rest, err := got.DecodeInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if got.Len() != 1000 {
		t.Fatalf("decoded %d entries", got.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := got.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || v != uint64(i*i) {
			t.Fatalf("key-%d: (%d,%v)", i, v, ok)
		}
	}
}

func TestTableMarshalDeterministic(t *testing.T) {
	// Same contents, different insertion orders ⇒ identical encodings
	// (entries are sorted by key).
	a, b := New(1), New(1)
	keys := []string{"zebra", "alpha", "mid"}
	for _, k := range keys {
		a.Put([]byte(k), 1)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Put([]byte(keys[i]), 1)
	}
	if string(a.AppendBinary(nil)) != string(b.AppendBinary(nil)) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestTableRoundTripBinaryKeys(t *testing.T) {
	tab := New(7)
	tab.Put([]byte{0, 1, 2, 0, 255}, 42)
	tab.Put([]byte{}, 7) // empty key is legal
	got := New(7)
	if _, err := got.DecodeInto(tab.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Get([]byte{0, 1, 2, 0, 255}); !ok || v != 42 {
		t.Fatal("binary key lost")
	}
	if v, ok := got.Get(nil); !ok || v != 7 {
		t.Fatal("empty key lost")
	}
}

func TestDecodeIntoRejectsCorrupt(t *testing.T) {
	tab := New(1)
	tab.Put([]byte("k"), 1)
	buf := tab.AppendBinary(nil)
	for name, c := range map[string][]byte{
		"empty":         {},
		"truncated key": buf[:2],
		"huge key len":  {0x01, 0xFF, 0xFF, 0xFF, 0x7F},
	} {
		fresh := New(1)
		if _, err := fresh.DecodeInto(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMembersMatchPerSetTables(t *testing.T) {
	// A mask table serialized one set at a time must give the same bytes
	// as a separate table per set, and decode back to the same masks.
	masks, t1, t2 := New(1), New(2), New(3)
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		var m uint64
		if i%3 != 0 {
			m |= 1
			t1.Put(k, 1)
		}
		if i%2 == 0 {
			m |= 2
			t2.Put(k, 1)
		}
		if m != 0 {
			masks.Put(k, m)
		}
	}
	enc := masks.AppendMembers(masks.AppendMembers(nil, 1), 2)
	if want := t2.AppendBinary(t1.AppendBinary(nil)); string(enc) != string(want) {
		t.Fatal("AppendMembers differs from per-set tables")
	}
	got := New(4)
	rest, err := got.DecodeMembers(enc, 1)
	if err == nil {
		rest, err = got.DecodeMembers(rest, 2)
	}
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeMembers: err=%v rest=%d", err, len(rest))
	}
	if string(got.AppendBinary(nil)) != string(masks.AppendBinary(nil)) {
		t.Fatal("decoded masks differ from the original")
	}
}
