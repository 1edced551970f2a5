package fleet

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzFleetRoute throws random op streams — plan-key lookups, device
// losses, restores — at the routing ring and checks the router's safety
// invariants after every op:
//
//   - never drops: while at least one device is live, every key resolves
//     to a live owner; an empty ring is the only ok=false case;
//   - never double-assigns: a key's owner is a pure function of the live
//     member set — a fresh ring rebuilt from the same members (in sorted
//     order, i.e. a different op history) agrees on every placement;
//   - loss events move only orphans: after any membership change, a key's
//     owner changes only if its previous owner left the ring, or the key
//     moved onto a device that just joined.
//
// The byte stream decodes as: byte 0 picks the fleet size (1..8); each
// following pair (op, arg) is a lookup, a loss, or a restore.
func FuzzFleetRoute(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 1, 0, 0, 3, 2, 0, 0, 5})
	f.Add([]byte{1, 1, 0, 0, 0, 2, 0})
	f.Add([]byte{8, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 0, 9})
	f.Add([]byte{3, 0, 200, 1, 2, 0, 200, 2, 2, 0, 200, 1, 0, 1, 1, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		ids := make([]string, n)
		live := map[string]bool{}
		r := NewRing()
		for i := 0; i < n; i++ {
			ids[i] = fmt.Sprintf("h%d/d%d", i/2, i%2)
			if err := r.Add(ids[i]); err != nil {
				t.Fatalf("seed add %s: %v", ids[i], err)
			}
			live[ids[i]] = true
		}
		// A fixed probe population tracks cross-event movement.
		probes := make([]string, 32)
		owners := make([]string, len(probes))
		for i := range probes {
			probes[i] = fmt.Sprintf("plan-%d", i)
			owners[i], _ = r.Lookup(probes[i])
		}

		checkAll := func(opIdx int, joined, lost string) {
			if r.Len() != len(liveSet(live)) {
				t.Fatalf("op %d: ring size %d vs tracked %d", opIdx, r.Len(), len(liveSet(live)))
			}
			if r.Len() == 0 {
				if _, ok := r.Lookup("any"); ok {
					t.Fatalf("op %d: empty ring returned an owner", opIdx)
				}
				return
			}
			// Rebuild from the sorted live set: placement must not depend
			// on the op history that produced the membership.
			fresh := NewRing()
			for _, id := range liveSet(live) {
				if err := fresh.Add(id); err != nil {
					t.Fatal(err)
				}
			}
			for i, key := range probes {
				owner, ok := r.Lookup(key)
				if !ok || !live[owner] {
					t.Fatalf("op %d: key %s dropped (owner %q ok=%v, live=%v)", opIdx, key, owner, ok, live[owner])
				}
				if fo, _ := fresh.Lookup(key); fo != owner {
					t.Fatalf("op %d: key %s double-assigned: ring says %s, fresh rebuild says %s", opIdx, key, owner, fo)
				}
				prev := owners[i]
				if prev != "" && owner != prev && prev != lost && owner != joined {
					t.Fatalf("op %d: key %s moved %s -> %s though %q was lost and %q joined", opIdx, key, prev, owner, lost, joined)
				}
				owners[i] = owner
			}
		}

		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := ids[int(arg)%n]
			joined, lost := "", ""
			switch op % 3 {
			case 0: // lookup a random key
				key := fmt.Sprintf("plan-%d", arg)
				owner, ok := r.Lookup(key)
				if r.Len() > 0 && (!ok || !live[owner]) {
					t.Fatalf("op %d: lookup %s on %d live devices returned (%q, %v)", i, key, r.Len(), owner, ok)
				}
				if r.Len() == 0 && ok {
					t.Fatalf("op %d: lookup on empty ring returned %q", i, owner)
				}
				continue
			case 1: // device loss
				if !live[id] {
					continue
				}
				if err := r.Remove(id); err != nil {
					t.Fatalf("op %d: remove %s: %v", i, id, err)
				}
				live[id] = false
				lost = id
			case 2: // device restore
				if live[id] {
					continue
				}
				if err := r.Add(id); err != nil {
					t.Fatalf("op %d: add %s: %v", i, id, err)
				}
				live[id] = true
				joined = id
			}
			checkAll(i, joined, lost)
		}
	})
}

func liveSet(live map[string]bool) []string {
	var out []string
	for id, ok := range live {
		if ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
