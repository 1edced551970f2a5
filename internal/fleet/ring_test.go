package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// ringIDs turns a quick-generated byte slice into 1..8 distinct device IDs.
func ringIDs(raw []byte) []string {
	n := 1 + len(raw)%8
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("h%d/d%d", i/2, i%2))
	}
	return ids
}

func buildRing(t *testing.T, ids []string) *Ring {
	t.Helper()
	r := NewRing()
	for _, id := range ids {
		if err := r.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// probeKeys is a fixed key population large enough for the ~K/N statistics.
func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan-%d", i)
	}
	return keys
}

// Placement depends only on the member set: any insertion order — and any
// interleaving of adds with removed-then-readded members — yields the same
// owner for every key. There is no seed to vary, so order independence is
// the whole nondeterminism surface.
func TestRingPlacementInsertionOrderIndependent(t *testing.T) {
	keys := probeKeys(512)
	check := func(raw []byte, seed int64) bool {
		ids := ringIDs(raw)
		sorted := append([]string(nil), ids...)
		sort.Strings(sorted)
		shuffled := append([]string(nil), ids...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		a := buildRing(t, sorted)
		b := buildRing(t, shuffled)
		// A ring that lost and regained a member matches a fresh one too.
		c := buildRing(t, shuffled)
		if len(ids) > 1 {
			if err := c.Remove(ids[0]); err != nil {
				return false
			}
			if err := c.Add(ids[0]); err != nil {
				return false
			}
		}
		for _, k := range keys {
			oa, _ := a.Lookup(k)
			ob, _ := b.Lookup(k)
			oc, _ := c.Lookup(k)
			if oa != ob || oa != oc {
				t.Logf("key %s: %s vs %s vs %s", k, oa, ob, oc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Adding a device moves keys only onto the new device, and roughly its
// fair share K/(N+1) of them — never a reshuffle between the old members.
func TestRingAddMovesOnlyToNewDevice(t *testing.T) {
	keys := probeKeys(4096)
	check := func(raw []byte) bool {
		ids := ringIDs(raw)
		r := buildRing(t, ids)
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k], _ = r.Lookup(k)
		}
		const newID = "hx/dnew"
		if err := r.Add(newID); err != nil {
			return false
		}
		moved := 0
		for _, k := range keys {
			after, _ := r.Lookup(k)
			if after == before[k] {
				continue
			}
			if after != newID {
				t.Logf("key %s moved %s -> %s, not to the new device", k, before[k], after)
				return false
			}
			moved++
		}
		// Consistent hashing moves ~K/(N+1) keys; allow 3x for hash-slot
		// variance at 64 virtual nodes.
		n := len(ids) + 1
		limit := 3 * len(keys) / n
		if moved > limit {
			t.Logf("add moved %d of %d keys across %d devices (limit %d)", moved, len(keys), n, limit)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Losing a device moves only the keys it owned (~K/N), and every orphan
// lands on a surviving member.
func TestRingRemoveMovesOnlyOrphans(t *testing.T) {
	keys := probeKeys(4096)
	check := func(raw []byte, pick uint8) bool {
		ids := ringIDs(raw)
		if len(ids) < 2 {
			return true
		}
		r := buildRing(t, ids)
		lost := ids[int(pick)%len(ids)]
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k], _ = r.Lookup(k)
		}
		if err := r.Remove(lost); err != nil {
			return false
		}
		moved := 0
		for _, k := range keys {
			after, ok := r.Lookup(k)
			if !ok || after == lost {
				t.Logf("key %s: owner %q ok=%v after losing %s", k, after, ok, lost)
				return false
			}
			if before[k] != lost {
				if after != before[k] {
					t.Logf("key %s moved %s -> %s though its owner survived", k, before[k], after)
					return false
				}
				continue
			}
			moved++
		}
		limit := 3 * len(keys) / len(ids)
		if moved > limit {
			t.Logf("loss of %s moved %d of %d keys across %d devices (limit %d)", lost, moved, len(keys), len(ids), limit)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Every member of a small fleet owns a nonzero slice of a large keyspace —
// the virtual nodes spread load instead of letting one device shadow
// another.
func TestRingBalance(t *testing.T) {
	ids := []string{"h0/d0", "h0/d1", "h1/d0", "h1/d1"}
	r := buildRing(t, ids)
	owned := map[string]int{}
	keys := probeKeys(8192)
	for _, k := range keys {
		id, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("lookup %s failed on a populated ring", k)
		}
		owned[id]++
	}
	for _, id := range ids {
		share := float64(owned[id]) / float64(len(keys))
		if share < 0.05 {
			t.Errorf("device %s owns %.1f%% of the keyspace; virtual nodes are not spreading", id, 100*share)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if _, ok := r.Lookup("k"); ok {
		t.Error("empty ring returned an owner")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty device ID accepted")
	}
	if err := r.Add("d0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("d0"); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := r.Remove("nope"); err == nil {
		t.Error("removing a non-member succeeded")
	}
	if got, ok := r.Lookup("anything"); !ok || got != "d0" {
		t.Errorf("single-member ring returned (%q, %v)", got, ok)
	}
	if !r.Has("d0") || r.Has("d1") || r.Len() != 1 {
		t.Error("membership bookkeeping wrong")
	}
	if err := r.Remove("d0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("anything"); ok {
		t.Error("drained ring still returned an owner")
	}
	if members := buildRing(t, []string{"b", "a"}).Members(); len(members) != 2 || members[0] != "a" {
		t.Errorf("Members not sorted: %v", members)
	}
}
