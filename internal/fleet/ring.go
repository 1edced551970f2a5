// Package fleet scales the offload service from one simulated card to a
// fleet of hosts × devices: a router in front of N serve.Server instances,
// each over its own (possibly heterogeneous) simulated platform.
//
// Placement is consistent hashing on the compiled-plan key, so a key's
// requests keep landing on the same device and its per-device plan cache
// stays hot (Zhang et al.: tuning decisions are a property of the
// workload/platform pair — re-planning a key on a new device is the
// expensive event placement exists to avoid). When a primary's queue grows
// past the work-stealing threshold, the router redirects to the
// least-loaded device of the same machine signature: the shared
// compiled-plan registry keys plans by (job, machine) so a same-signature
// thief reuses the donor's plan without recompiling, and stealing never
// crosses signatures while the donor is healthy. Device loss removes the
// device from the ring — consistent hashing moves only the lost device's
// keys (~K/N of them) — while its admitted queue drains to completion;
// nothing is dropped and nothing is assigned twice.
//
// Determinism: like the single server, a request's values are a pure
// function of its plan source and inputs, so fleet composition, stealing,
// and faults perturb timing but never outputs. The stepped replay harness
// (Replay) additionally makes the full rollup deterministic: submissions,
// steal decisions, loss events, and batch boundaries become a function of
// the trace alone, so two replays are bit-identical — outputs, rejection
// set, and the fleet-wide report.
package fleet

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node: a device's hash point on the unit circle.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring over device IDs. Placement depends only
// on the member set — never on insertion order or any seed — because every
// point is a pure hash of (device ID, replica index). It is not safe for
// concurrent use; the Fleet serializes access.
type Ring struct {
	points  []ringPoint
	members map[string]bool
}

// DefaultReplicas is the virtual-node count per device. 64 points keep the
// expected load imbalance across a handful of devices within a few percent
// while the ring stays small enough to rebuild on every membership change.
const DefaultReplicas = 64

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: map[string]bool{}}
}

// Add places a device's virtual nodes on the ring. Adding an existing
// member is an error — the caller tracks health separately.
func (r *Ring) Add(id string) error {
	if id == "" {
		return fmt.Errorf("fleet: empty device id")
	}
	if r.members[id] {
		return fmt.Errorf("fleet: device %s already on the ring", id)
	}
	r.members[id] = true
	for i := 0; i < DefaultReplicas; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(id, i), id: id})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].id < r.points[b].id
	})
	return nil
}

// Remove takes a device's virtual nodes off the ring; keys it owned move
// to their next clockwise neighbors, everything else stays put.
func (r *Ring) Remove(id string) error {
	if !r.members[id] {
		return fmt.Errorf("fleet: device %s not on the ring", id)
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Has reports ring membership.
func (r *Ring) Has(id string) bool { return r.members[id] }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member IDs sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup maps a plan key to its owning device: the first virtual node at
// or clockwise of the key's hash. ok is false only on an empty ring.
func (r *Ring) Lookup(key string) (id string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id, true
}

// keyHash maps a plan key to its ring position: FNV-1a over the bytes,
// then a splitmix64-style finalizer for dispersion (short keys differ in
// few bits; the finalizer spreads them over the whole circle).
func keyHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

// pointHash positions one virtual node: the device hash advanced by the
// replica index, re-finalized so replicas scatter instead of clustering.
func pointHash(id string, replica int) uint64 {
	return mix64(keyHash(id) + uint64(replica)*0x9E3779B97F4A7C15)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
