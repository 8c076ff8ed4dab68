package collate

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// buildFromEdges constructs an IntGraph over nUsers users and a universe
// of fpUniverse fingerprints from an explicit edge list.
func buildFromEdges(nUsers, fpUniverse int, edges [][2]int32) *IntGraph {
	g := NewIntGraph(nUsers, fpUniverse)
	for _, e := range edges {
		g.AddObservation(e[0], e[1])
	}
	return g
}

// partitionSignature canonicalizes a graph's user partition: label per
// user by first appearance. Two graphs with equal signatures over the same
// user order collate identically.
func partitionSignature(g *IntGraph) []int32 {
	return g.Labels()
}

// TestMergeDisjointUniverses merges two shards whose fingerprint universes
// do not overlap at all: the result must be the disjoint union of the two
// partitions.
func TestMergeDisjointUniverses(t *testing.T) {
	// Shard A: users 0,1 joined by fp 0; user 2 alone on fp 1.
	a := buildFromEdges(3, 2, [][2]int32{{0, 0}, {1, 0}, {2, 1}})
	// Shard B: users 0,1 joined by fp 0.
	b := buildFromEdges(2, 1, [][2]int32{{0, 0}, {1, 0}})

	// Global layout: A's users at 0,1,2; B's at 3,4. A's fps at 0,1; B's
	// fp at 2.
	g := NewIntGraph(5, 3)
	g.Merge(a, []int32{0, 1, 2}, []int32{0, 1})
	g.Merge(b, []int32{3, 4}, []int32{2})

	want := []int32{0, 0, 1, 2, 2}
	if got := partitionSignature(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint merge labels = %v, want %v", got, want)
	}
	if g.NumFingerprints() != 3 {
		t.Fatalf("NumFingerprints = %d, want 3", g.NumFingerprints())
	}
	if got, want := g.ClusterSizes(), []int{2, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ClusterSizes = %v, want %v", got, want)
	}
}

// TestMergeOverlappingUniverses is the cross-shard join case: both shards
// observed the same global fingerprint, so their clusters must fuse.
func TestMergeOverlappingUniverses(t *testing.T) {
	// Shard A: users 0,1 share local fp 0 (global fp 7).
	a := buildFromEdges(2, 1, [][2]int32{{0, 0}, {1, 0}})
	// Shard B: user 0 has local fp 0 (global fp 7 again!), user 1 has
	// local fp 1 (global fp 3).
	b := buildFromEdges(2, 2, [][2]int32{{0, 0}, {1, 1}})

	g := NewIntGraph(4, 8)
	g.Merge(a, []int32{0, 1}, []int32{7})
	g.Merge(b, []int32{2, 3}, []int32{7, 3})

	// Users 0,1 (from A) and 2 (from B) all touch global fp 7 → one
	// cluster; user 3 is alone.
	want := []int32{0, 0, 0, 1}
	if got := partitionSignature(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("overlapping merge labels = %v, want %v", got, want)
	}
	if g.NumFingerprints() != 2 {
		t.Fatalf("NumFingerprints = %d, want 2 (fp 7 shared)", g.NumFingerprints())
	}
	if got, want := g.ClusterSizes(), []int{3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ClusterSizes = %v, want %v", got, want)
	}
}

// TestMergeEmptyGraph checks both directions of the identity: merging an
// empty graph changes nothing, and merging into an empty-population graph
// transfers the partition.
func TestMergeEmptyGraph(t *testing.T) {
	a := buildFromEdges(3, 2, [][2]int32{{0, 0}, {1, 0}, {2, 1}})
	before := partitionSignature(a)

	empty := NewIntGraph(0, 0)
	a.Merge(empty, nil, nil)
	if got := partitionSignature(a); !reflect.DeepEqual(got, before) {
		t.Fatalf("merge of empty graph changed labels: %v → %v", before, got)
	}
	if a.NumFingerprints() != 2 || a.NumUsers() != 3 {
		t.Fatalf("merge of empty graph changed counts: users=%d fps=%d", a.NumUsers(), a.NumFingerprints())
	}

	// Other direction: fold a into a fresh graph with the same layout.
	g := NewIntGraph(3, 2)
	g.Merge(a, []int32{0, 1, 2}, []int32{0, 1})
	if got := partitionSignature(g); !reflect.DeepEqual(got, before) {
		t.Fatalf("merge into empty graph: labels = %v, want %v", got, before)
	}
}

// TestMergeSelfIdentity merges a clone of g into g under identity maps:
// the partition must not change (idempotence of the union pass).
func TestMergeSelfIdentity(t *testing.T) {
	g := buildFromEdges(5, 4, [][2]int32{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}})
	before := partitionSignature(g)
	beforeSizes := g.ClusterSizes()

	userMap := []int32{0, 1, 2, 3, 4}
	fpMap := []int32{0, 1, 2, 3}
	g.Merge(g.Clone(), userMap, fpMap)

	if got := partitionSignature(g); !reflect.DeepEqual(got, before) {
		t.Fatalf("self-merge changed labels: %v → %v", before, got)
	}
	if got := g.ClusterSizes(); !reflect.DeepEqual(got, beforeSizes) {
		t.Fatalf("self-merge changed sizes: %v → %v", beforeSizes, got)
	}
	if g.NumFingerprints() != 3 {
		t.Fatalf("self-merge changed NumFingerprints: %d, want 3", g.NumFingerprints())
	}
}

// TestMergeMatchesReplay is the randomized contract check: splitting a
// random observation multiset across two shard-local graphs and merging
// must equal building one graph from all observations.
func TestMergeMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(20220808))
	for trial := 0; trial < 100; trial++ {
		nUsers := 2 + rng.Intn(30)
		universe := 1 + rng.Intn(12) // small → heavy fp sharing
		nObs := rng.Intn(80)
		type obs struct{ u, fp int32 }
		all := make([]obs, nObs)
		for i := range all {
			all[i] = obs{int32(rng.Intn(nUsers)), int32(rng.Intn(universe))}
		}

		// Reference: single graph over everything.
		ref := NewIntGraph(nUsers, universe)
		for _, o := range all {
			ref.AddObservation(o.u, o.fp)
		}

		// Shards: users assigned randomly; each shard interns its own
		// dense users and fingerprints in arrival order.
		type shard struct {
			g       *IntGraph
			userMap []int32 // local user → global
			userIdx map[int32]int32
			fpMap   []int32 // local fp → global
			fpIdx   map[int32]int32
		}
		shards := [2]*shard{}
		for i := range shards {
			shards[i] = &shard{
				g:       NewIntGraph(0, 0),
				userIdx: map[int32]int32{},
				fpIdx:   map[int32]int32{},
			}
		}
		owner := make([]int, nUsers)
		for u := range owner {
			owner[u] = rng.Intn(2)
		}
		for _, o := range all {
			sh := shards[owner[o.u]]
			lu, ok := sh.userIdx[o.u]
			if !ok {
				lu = sh.g.AddUser()
				sh.userIdx[o.u] = lu
				sh.userMap = append(sh.userMap, o.u)
			}
			lf, ok := sh.fpIdx[o.fp]
			if !ok {
				lf = int32(len(sh.fpMap))
				sh.fpIdx[o.fp] = lf
				sh.fpMap = append(sh.fpMap, o.fp)
				sh.g.EnsureUniverse(int(lf) + 1)
			}
			sh.g.AddObservation(lu, lf)
		}

		merged := NewIntGraph(nUsers, universe)
		for _, sh := range shards {
			merged.Merge(sh.g, sh.userMap, sh.fpMap)
		}

		if got, want := partitionSignature(merged), partitionSignature(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged labels %v != replay labels %v", trial, got, want)
		}
		if merged.NumFingerprints() != ref.NumFingerprints() {
			t.Fatalf("trial %d: merged fps %d != replay fps %d",
				trial, merged.NumFingerprints(), ref.NumFingerprints())
		}
	}
}

// TestCloneIndependence ensures Clone shares no mutable state.
func TestCloneIndependence(t *testing.T) {
	g := buildFromEdges(3, 3, [][2]int32{{0, 0}, {1, 1}})
	c := g.Clone()
	g.AddObservation(1, 0) // merges users 0 and 1 in g only
	if got := partitionSignature(c); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("clone mutated by original: labels = %v", got)
	}
	c.AddObservation(2, 0)
	if got := partitionSignature(g); !reflect.DeepEqual(got, []int32{0, 0, 1}) {
		t.Fatalf("original mutated by clone: labels = %v", got)
	}
}

// TestReadsWriteNothing: the read-only methods, and Merge's reads of its
// argument, leave the forest as they found it even where a path is two
// links long — the property that lets goroutines share a graph that no one
// is writing.
func TestReadsWriteNothing(t *testing.T) {
	// Users 2 and 3 join on fp 1, users 0, 1 and 4 on fp 0; user 3 then
	// links the two, hanging the smaller cluster's root under the larger:
	// user 2 ends two links from its root.
	g := buildFromEdges(5, 2, [][2]int32{{2, 1}, {3, 1}, {0, 0}, {1, 0}, {4, 0}, {3, 0}})
	if u2 := g.userElem[2]; g.parent[g.parent[u2]] == g.parent[u2] {
		t.Fatal("fixture has no two-link path")
	}
	before := slices.Clone(g.parent)
	g.Labels()
	g.ClusterSizes()
	g.NumClusters()
	g.UniqueClusters()
	g.Clone()
	NewIntGraph(5, 2).Merge(g, []int32{0, 1, 2, 3, 4}, []int32{0, 1})
	if !slices.Equal(g.parent, before) {
		t.Fatalf("reads rewrote the forest: parent %v, was %v", g.parent, before)
	}
}
