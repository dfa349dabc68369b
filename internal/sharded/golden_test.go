package sharded

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"shbf/internal/core"
)

// Golden envelopes for the counting filters. A fixed op sequence —
// inserts, deletes, S1→S1∩S2 moves, counts up and down — is driven
// through the core and sharded CShBF_A and CShBF_X, and the SHA-256 of
// MarshalBinary is pinned. The digests were taken before the exact
// tables moved from collision chains to a flat open-addressing table,
// so they pin that the serialized form (ShBE envelopes, ShBS snapshots,
// cluster merges) did not change with the table's layout.
var goldenEnvelopes = map[string]string{
	"core/assoc":  "42f7a43569508bd41a2715cd716fb699c2ecab48e007a91eb982aac69bb21b21",
	"core/mult":   "2ea695b7d116631e58bf110ae514a854344be4ef06bc060eaee3b1fb94dc058d",
	"shard/assoc": "1b8e2f9b3f81a6ee89293e1a4ce99e949af98a98b1119187c37c93abf1d41d12",
	"shard/mult":  "3df5e710a95793fc4eadb2262f8759e94b2f517a9f01bd382fb429f4d0a9f050",
}

// goldenKey returns the i-th key: alternately a text key and a 13-byte
// binary 5-tuple with embedded zeros.
func goldenKey(i int) []byte {
	if i%2 == 0 {
		return []byte(fmt.Sprintf("golden-%04d", i))
	}
	k := make([]byte, 13)
	binary.BigEndian.PutUint32(k, uint32(i)*2654435761)
	binary.BigEndian.PutUint32(k[4:], uint32(i))
	k[12] = byte(i)
	return k
}

// assocUpdater is the update surface shared by core and sharded CShBF_A.
type assocUpdater interface {
	InsertS1([]byte) error
	InsertS2([]byte) error
	DeleteS1([]byte) error
	DeleteS2([]byte) error
}

// multUpdater is the update surface shared by core and sharded CShBF_X.
type multUpdater interface {
	Insert([]byte) error
	Delete([]byte) error
}

func driveAssoc(t *testing.T, a assocUpdater) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		must(a.InsertS1(goldenKey(i)))
	}
	for i := 200; i < 500; i++ {
		must(a.InsertS2(goldenKey(i))) // 200..299 move S1 → S1∩S2
	}
	for i := 0; i < 50; i++ {
		must(a.DeleteS1(goldenKey(i)))
	}
	for i := 450; i < 500; i++ {
		must(a.DeleteS2(goldenKey(i)))
	}
	for i := 250; i < 275; i++ {
		must(a.DeleteS1(goldenKey(i))) // S1∩S2 → S2 only
	}
	for i := 400; i < 420; i++ {
		must(a.InsertS1(goldenKey(i))) // S2 only → S1∩S2
	}
	for i := 0; i < 20; i++ {
		must(a.InsertS2(goldenKey(i))) // deleted from S1, now S2 only
	}
}

func driveMult(t *testing.T, f multUpdater) {
	t.Helper()
	for i := 0; i < 400; i++ {
		for j := 0; j <= i%5; j++ {
			if err := f.Insert(goldenKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 150; i++ {
		if err := f.Delete(goldenKey(i)); err != nil { // count-1 keys leave
			t.Fatal(err)
		}
	}
	for i := 100; i < 130; i++ {
		if err := f.Insert(goldenKey(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkGolden compares the envelope's digest with the pinned one, then
// decodes it into fresh and checks that re-encoding gives the same bytes.
func checkGolden(t *testing.T, name string, f encoding.BinaryMarshaler, fresh encoding.BinaryUnmarshaler) {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), goldenEnvelopes[name]; got != want {
		t.Errorf("%s: envelope SHA-256 = %s, want %s", name, got, want)
	}
	if err := fresh.UnmarshalBinary(data); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	again, err := fresh.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("%s: decode then re-encode changed the envelope (%d → %d bytes)", name, len(data), len(again))
	}
}

func TestCountingEnvelopesGolden(t *testing.T) {
	ca, err := core.NewCountingAssociation(1<<13, 4, core.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	driveAssoc(t, ca)
	checkGolden(t, "core/assoc", ca, new(core.CountingAssociation))

	cm, err := core.NewCountingMultiplicity(1<<13, 4, 8, core.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	driveMult(t, cm)
	checkGolden(t, "core/mult", cm, new(core.CountingMultiplicity))

	sa, err := NewAssociation(1<<14, 4, 4, core.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	driveAssoc(t, sa)
	checkGolden(t, "shard/assoc", sa, new(Association))

	sm, err := NewMultiplicity(1<<14, 4, 8, 4, core.WithSeed(44))
	if err != nil {
		t.Fatal(err)
	}
	driveMult(t, sm)
	checkGolden(t, "shard/mult", sm, new(Multiplicity))
}
