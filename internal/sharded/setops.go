package sharded

import (
	"errors"
	"fmt"
	"sync"
)

// Set algebra on the sharded membership filter, the serving-layer form
// of core.Membership.Union: replicas built from one Spec (same total
// bits, k, shard count, base seed) route every key to the same shard
// and place it at the same positions, so OR-ing shard i into shard i
// yields exactly the filter of the union. This is what cluster
// anti-entropy rides on — ship a replica's envelope, union it in, done
// (see internal/cluster and the daemon's /v2/namespaces/{ns}/merge).

// ErrIncompatible reports a union between filters of diverging Spec —
// different geometry or seed would interleave bit patterns that mean
// different keys, silently corrupting both answer sets, so the merge
// is refused with f unchanged.
var ErrIncompatible = errors.New("sharded: incompatible filters")

// unionMu serializes Union calls process-wide. Union holds two shard
// locks at once (dst write, src read); with at most one union in
// flight no lock-order cycle can form against the single-lock query
// and update paths. Unions are rare anti-entropy events, so the
// serialization costs nothing that matters.
var unionMu sync.Mutex

// Union merges other into f by the counting-filter union — per shard,
// a counter-wise saturating add of C, an OR of B and a per-key max
// over the exact tables (core.CountingMultiplicity.Merge) — making f
// report, for every element, at least the larger of the two filters'
// multiplicities with no false negatives introduced. The Specs must
// match exactly (geometry, seed, counter width, update mode);
// otherwise ErrIncompatible is returned and f is unchanged. This is
// what lets edge agents pre-aggregate counts and ship them upstream as
// one envelope (internal/ingest) and replicas anti-entropy their
// multiplicity filters like their membership ones.
func (f *Multiplicity) Union(other *Multiplicity) error {
	fs, os := f.Spec(), other.Spec()
	if fs != os {
		return fmt.Errorf("%w: spec %+v vs %+v", ErrIncompatible, fs, os)
	}
	if f == other {
		return nil // self-union is the identity
	}
	unionMu.Lock()
	defer unionMu.Unlock()
	for i := range f.set.shards {
		dst, src := &f.set.shards[i], &other.set.shards[i]
		dst.mu.Lock()
		src.mu.RLock()
		err := dst.f.Merge(src.f)
		src.mu.RUnlock()
		dst.mu.Unlock()
		if err != nil {
			// Unreachable with equal Specs, but a corrupt filter must
			// not half-merge silently.
			return fmt.Errorf("%w: shard %d: %v", ErrIncompatible, i, err)
		}
	}
	return nil
}

// Union ORs other into f, making f represent the union of both key
// sets. The two filters must have identical Specs (total bits, k, w̄,
// shard count, base seed); otherwise ErrIncompatible is returned and f
// is unchanged. Safe for concurrent use with both filters' other
// operations — shards are merged one pair at a time, so queries keep
// flowing on every shard the merge is not currently touching.
func (f *Filter) Union(other *Filter) error {
	fs, os := f.Spec(), other.Spec()
	if fs != os {
		return fmt.Errorf("%w: spec %+v vs %+v", ErrIncompatible, fs, os)
	}
	if f == other {
		return nil // self-union is the identity
	}
	unionMu.Lock()
	defer unionMu.Unlock()
	for i := range f.set.shards {
		dst, src := &f.set.shards[i], &other.set.shards[i]
		dst.mu.Lock()
		src.mu.RLock()
		err := dst.f.Union(src.f)
		src.mu.RUnlock()
		dst.mu.Unlock()
		if err != nil {
			// Unreachable with equal Specs (shard seeds derive from the
			// base seed), but a corrupt filter must not half-merge
			// silently.
			return fmt.Errorf("%w: shard %d: %v", ErrIncompatible, i, err)
		}
	}
	return nil
}
