package hashtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// This file implements binary serialization for the table: uvarint
// entry count, then (uvarint key length, key bytes, uvarint value) per
// entry. Entries are emitted in sorted key order so the encoding is
// deterministic regardless of insertion history or table layout.
//
// A table of membership masks also serializes one set at a time
// (AppendMembers/DecodeMembers): the set of keys whose mask has a given
// bit, in the form of a table mapping each of those keys to 1.

// AppendBinary appends the table's serialized form to buf and returns
// the result.
func (t *Table) AppendBinary(buf []byte) []byte {
	return t.appendSorted(buf, func(v uint64) (uint64, bool) { return v, true })
}

// AppendMembers appends the serialized form of the set {key : value&bit
// ≠ 0}, each key mapped to 1, to buf and returns the result.
func (t *Table) AppendMembers(buf []byte, bit uint64) []byte {
	return t.appendSorted(buf, func(v uint64) (uint64, bool) { return 1, v&bit != 0 })
}

// appendSorted writes, in key order, every entry for which out reports
// true, with the value out maps it to.
func (t *Table) appendSorted(buf []byte, out func(v uint64) (uint64, bool)) []byte {
	order := make([]uint32, 0, len(t.entries))
	for i, e := range t.entries {
		if _, ok := out(e.value); ok {
			order = append(order, uint32(i))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int { return bytes.Compare(t.key(int(a)), t.key(int(b))) })
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, i := range order {
		k := t.key(int(i))
		v, _ := out(t.entries[i].value)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// DecodeInto reads entries serialized by AppendBinary into t (which
// should be empty), returning the remaining bytes.
func (t *Table) DecodeInto(buf []byte) ([]byte, error) {
	return decode(buf, t.Put)
}

// DecodeMembers reads a set serialized by AppendMembers (or any table
// encoding; values are ignored) and sets bit in the value of each of
// its keys, returning the remaining bytes.
func (t *Table) DecodeMembers(buf []byte, bit uint64) ([]byte, error) {
	return decode(buf, func(key []byte, _ uint64) {
		c, v, _ := t.Find(key)
		t.Store(c, key, v|bit)
	})
}

// decode walks a table encoding, calling fn for each entry.
func decode(buf []byte, fn func(key []byte, value uint64)) ([]byte, error) {
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("hashtable: truncated entry count")
	}
	buf = buf[sz:]
	for i := uint64(0); i < count; i++ {
		klen, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf)-sz) < klen {
			return nil, fmt.Errorf("hashtable: truncated key %d", i)
		}
		buf = buf[sz:]
		key := buf[:klen]
		buf = buf[klen:]
		value, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("hashtable: truncated value %d", i)
		}
		buf = buf[sz:]
		fn(key, value)
	}
	return buf, nil
}
