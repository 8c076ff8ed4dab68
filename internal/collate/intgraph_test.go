package collate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// naiveCC is the quadratic connected-components oracle: one component
// label per element (users first, then fingerprints), relabelled in full
// on every merge.
type naiveCC struct {
	users int
	label []int
	seen  []bool // fingerprint observed
}

func newNaiveCC(users, universe int) *naiveCC {
	n := &naiveCC{users: users, label: make([]int, users+universe), seen: make([]bool, universe)}
	for i := range n.label {
		n.label[i] = i
	}
	return n
}

// add records the edge and reports whether it joined two components.
func (n *naiveCC) add(u, f int) bool {
	n.seen[f] = true
	la, lb := n.label[u], n.label[n.users+f]
	if la == lb {
		return false
	}
	for i := range n.label {
		if n.label[i] == lb {
			n.label[i] = la
		}
	}
	return true
}

// labels returns the users' component labels, canonicalized by first
// appearance, and the user count of each label.
func (n *naiveCC) labels() (labels []int32, sizes []int) {
	canon := map[int]int32{}
	labels = make([]int32, n.users)
	for u := 0; u < n.users; u++ {
		id, ok := canon[n.label[u]]
		if !ok {
			id = int32(len(canon))
			canon[n.label[u]] = id
			sizes = append(sizes, 0)
		}
		labels[u] = id
		sizes[id]++
	}
	return labels, sizes
}

// match answers Match's contract from the oracle: the result and, for a
// unique match, the users of the matched component.
func (n *naiveCC) match(fps []int) (res MatchResult, members []int) {
	if len(fps) == 0 {
		return MatchNoEvidence, nil
	}
	found := map[int]bool{}
	var comp int
	for _, f := range fps {
		if f < len(n.seen) && n.seen[f] {
			comp = n.label[n.users+f]
			found[comp] = true
		}
	}
	switch len(found) {
	case 0:
		return MatchNone, nil
	case 1:
		for u := 0; u < n.users; u++ {
			if n.label[u] == comp {
				members = append(members, u)
			}
		}
		return MatchUnique, members
	}
	return MatchAmbiguous, nil
}

func userName(u int) string { return fmt.Sprintf("u%d", u) }
func hashName(f int) string { return fmt.Sprintf("h%d", f) }

// buildRandom streams a random observation sequence into an IntGraph, the
// string Graph and the naive oracle, asserting every per-edge merge report
// against the oracle. Every user is observed first, in ID order, on a
// private fingerprint so the string Graph interns users as IntGraph
// numbers them.
func buildRandom(t *testing.T, rng *rand.Rand, users, universe, edges int) (*IntGraph, *Graph, *naiveCC) {
	t.Helper()
	ig := NewIntGraph(users, universe)
	g := NewGraph()
	oracle := newNaiveCC(users, universe)
	observe := func(u, f int) bool {
		want := oracle.add(u, f)
		if got := ig.AddObservation(int32(u), int32(f)); got != want {
			t.Fatalf("edge (u%d, h%d): IntGraph merge=%v, oracle %v", u, f, got, want)
		}
		g.AddObservation(userName(u), hashName(f))
		return want
	}
	for u := 0; u < users; u++ {
		observe(u, u)
	}
	for e := 0; e < edges; e++ {
		observe(rng.Intn(users), users+rng.Intn(universe-users))
	}
	return ig, g, oracle
}

// TestIntGraphMatchesGraph: IntGraph and the string Graph over it must
// produce exactly the components of the naive oracle — labels up to
// canonical renaming, cluster sizes, unique count, Labels' cluster count
// — and the same Match results, including probes of fingerprints never
// observed.
func TestIntGraphMatchesGraph(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 5 + rng.Intn(60)
		universe := users + 5 + rng.Intn(60)
		ig, g, oracle := buildRandom(t, rng, users, universe, rng.Intn(4*users))
		// Probe IDs past the observed range are never inserted.
		probeSpace := universe + 20

		wantLabels, wantSizes := oracle.labels()
		labels, k := ig.Labels()
		if !reflect.DeepEqual(labels, wantLabels) {
			t.Logf("seed %d: labels differ from the oracle", seed)
			return false
		}
		maxLabel := int32(-1)
		for _, l := range labels {
			maxLabel = max(maxLabel, l)
		}
		if k != len(ig.ClusterSizes()) || k != int(maxLabel)+1 {
			t.Logf("seed %d: Labels' k %d, %d ClusterSizes, largest label %d", seed, k, len(ig.ClusterSizes()), maxLabel)
			return false
		}
		if !reflect.DeepEqual(ig.ClusterSizes(), wantSizes) {
			t.Logf("seed %d: ClusterSizes %v, oracle %v", seed, ig.ClusterSizes(), wantSizes)
			return false
		}
		wantUnique := 0
		for _, s := range wantSizes {
			if s == 1 {
				wantUnique++
			}
		}
		if ig.NumClusters() != len(wantSizes) || g.NumClusters() != len(wantSizes) ||
			ig.UniqueClusters() != wantUnique || g.UniqueClusters() != wantUnique {
			t.Logf("seed %d: clusters (int %d, string %d) unique (int %d, string %d), oracle %d / %d",
				seed, ig.NumClusters(), g.NumClusters(), ig.UniqueClusters(), g.UniqueClusters(),
				len(wantSizes), wantUnique)
			return false
		}
		// The string Graph's ClusterOf must induce the oracle's partition.
		stringLabels := make([]int, users)
		for u := range stringLabels {
			id, ok := g.ClusterOf(userName(u))
			if !ok {
				t.Logf("seed %d: string Graph lost user %d", seed, u)
				return false
			}
			stringLabels[u] = id
		}
		if !reflect.DeepEqual(canonicalize(stringLabels), wantLabels) {
			t.Logf("seed %d: string Graph partition differs from the oracle", seed)
			return false
		}

		for trial := 0; trial < 100; trial++ {
			fps := make([]int, rng.Intn(5))
			ids := make([]int32, len(fps))
			hashes := make([]string, len(fps))
			for i := range fps {
				fps[i] = rng.Intn(probeSpace)
				ids[i] = int32(fps[i])
				hashes[i] = hashName(fps[i])
			}
			wantRes, members := oracle.match(fps)
			gotCluster, gotRes := ig.Match(ids)
			strCluster, strRes := g.Match(hashes)
			if gotRes != wantRes || strRes != wantRes {
				t.Logf("seed %d: Match(%v) = int %v, string %v, oracle %v", seed, fps, gotRes, strRes, wantRes)
				return false
			}
			if wantRes != MatchUnique {
				continue
			}
			var gotMembers, strMembers []int
			for u := 0; u < users; u++ {
				if ig.ClusterOf(int32(u)) == gotCluster {
					gotMembers = append(gotMembers, u)
				}
				if id, _ := g.ClusterOf(userName(u)); id == strCluster {
					strMembers = append(strMembers, u)
				}
			}
			if !reflect.DeepEqual(gotMembers, members) || !reflect.DeepEqual(strMembers, members) {
				t.Logf("seed %d: matched members int %v, string %v, oracle %v", seed, gotMembers, strMembers, members)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	empty := NewIntGraph(0, 3)
	if labels, k := empty.Labels(); len(labels) != 0 || k != 0 || len(empty.ClusterSizes()) != 0 {
		t.Errorf("empty graph: labels %v, k %d, %d ClusterSizes, want none, 0 and 0", labels, k, len(empty.ClusterSizes()))
	}
}

// canonicalize maps arbitrary labels to first-appearance-dense int32s.
func canonicalize(labels []int) []int32 {
	seen := map[int]int32{}
	out := make([]int32, len(labels))
	for i, l := range labels {
		id, ok := seen[l]
		if !ok {
			id = int32(len(seen))
			seen[l] = id
		}
		out[i] = id
	}
	return out
}

// TestIntGraphBasics: merge reports, component sizes and cluster counts on
// a hand-built graph, including online growth.
func TestIntGraphBasics(t *testing.T) {
	g := NewIntGraph(5, 4)
	if g.NumClusters() != 5 || g.NumFingerprints() != 0 {
		t.Fatalf("fresh graph: clusters=%d fps=%d", g.NumClusters(), g.NumFingerprints())
	}
	if !g.AddObservation(0, 0) {
		t.Error("first observation of a fingerprint reported no merge")
	}
	if !g.AddObservation(1, 0) {
		t.Error("second user on a shared fingerprint reported no merge")
	}
	if g.AddObservation(1, 0) {
		t.Error("repeated observation reported a merge")
	}
	g.AddObservation(2, 1)
	g.AddObservation(3, 1)
	g.AddObservation(1, 1) // joins {0,1} and {2,3}
	if g.NumClusters() != 2 || g.UniqueClusters() != 1 {
		t.Errorf("clusters=%d unique=%d, want 2/1", g.NumClusters(), g.UniqueClusters())
	}
	if g.ClusterOf(0) != g.ClusterOf(3) {
		t.Error("users 0 and 3 should share a cluster")
	}
	if g.ClusterOf(0) == g.ClusterOf(4) {
		t.Error("user 4 should be alone")
	}
	if sizes := g.ClusterSizes(); !reflect.DeepEqual(sizes, []int{4, 1}) {
		t.Errorf("ClusterSizes = %v, want [4 1]", sizes)
	}
	if u := g.AddUser(); u != 5 || g.NumUsers() != 6 || g.NumClusters() != 3 {
		t.Errorf("AddUser: id=%d users=%d clusters=%d", u, g.NumUsers(), g.NumClusters())
	}
}

// TestUnionFindAgainstNaive cross-checks IntGraph's disjoint-set forest
// against a quadratic reference on random union sequences. Joining users
// a and b is both observing a fresh fingerprint, so the second
// observation's merge report, pairwise connectivity and the cluster count
// must all match the reference.
func TestUnionFindAgainstNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, ops = 40, 60
		g := NewIntGraph(n, ops)
		label := make([]int, n) // naive: component label per user
		for i := range label {
			label[i] = i
		}
		for op := 0; op < ops; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			g.AddObservation(int32(a), int32(op))
			merged := g.AddObservation(int32(b), int32(op))
			la, lb := label[a], label[b]
			if merged != (la != lb) {
				return false
			}
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		// Compare pairwise connectivity.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (g.ClusterOf(int32(a)) == g.ClusterOf(int32(b))) != (label[a] == label[b]) {
					return false
				}
			}
		}
		// Compare cluster counts.
		distinct := map[int]struct{}{}
		for _, l := range label {
			distinct[l] = struct{}{}
		}
		return len(distinct) == g.NumClusters()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIntGraphMatchManyRoots: Match must stay correct past its no-alloc
// fast path of 16 distinct roots.
func TestIntGraphMatchManyRoots(t *testing.T) {
	const users = 40
	ig := NewIntGraph(users, users)
	for u := 0; u < users; u++ {
		ig.AddObservation(int32(u), int32(u)) // 40 singleton clusters
	}
	all := make([]int32, users)
	for i := range all {
		all[i] = int32(i)
	}
	if _, res := ig.Match(all); res != MatchAmbiguous {
		t.Errorf("40-root probe: result %v, want MatchAmbiguous", res)
	}
	if c, res := ig.Match(all[3:4]); res != MatchUnique || ig.ClusterOf(3) != c {
		t.Errorf("single probe: cluster %d result %v, want unique cluster of user 3", c, res)
	}
	if _, res := ig.Match(nil); res != MatchNoEvidence {
		t.Error("empty probe must be MatchNoEvidence")
	}
}

// TestIntGraphMatchEvidence: the no-evidence / no-match distinction. An
// empty probe set carries no evidence at all; a non-empty probe set whose
// IDs are out of universe or never observed is evidence that matched
// nothing. Both graph flavors must agree.
func TestIntGraphMatchEvidence(t *testing.T) {
	ig := NewIntGraph(2, 4)
	ig.AddObservation(0, 0)
	ig.AddObservation(1, 1)

	if _, res := ig.Match(nil); res != MatchNoEvidence {
		t.Errorf("nil probe: %v, want MatchNoEvidence", res)
	}
	if _, res := ig.Match([]int32{}); res != MatchNoEvidence {
		t.Errorf("empty probe: %v, want MatchNoEvidence", res)
	}
	// In-universe but never observed.
	if _, res := ig.Match([]int32{2, 3}); res != MatchNone {
		t.Errorf("unobserved IDs: %v, want MatchNone", res)
	}
	// Entirely out of the interning universe.
	if _, res := ig.Match([]int32{99, 1000}); res != MatchNone {
		t.Errorf("out-of-universe IDs: %v, want MatchNone", res)
	}
	// A mix of unknown and known still identifies the known cluster.
	if c, res := ig.Match([]int32{99, 0}); res != MatchUnique || c != ig.ClusterOf(0) {
		t.Errorf("mixed probe: cluster %d result %v, want unique cluster of user 0", c, res)
	}

	// The string graph agrees on every case.
	g := NewGraph()
	g.AddObservation("u0", "h0")
	g.AddObservation("u1", "h1")
	if _, res := g.Match(nil); res != MatchNoEvidence {
		t.Errorf("string graph nil probe: %v, want MatchNoEvidence", res)
	}
	if _, res := g.Match([]string{"nope", "also-nope"}); res != MatchNone {
		t.Errorf("string graph unknown hashes: %v, want MatchNone", res)
	}
}

// TestIntGraphOnlineGrowth: a graph grown online (AddUser/EnsureUniverse/
// Observe, stream order) must equal a batch-constructed graph over the same
// observations, and Observe's merge reports must keep an incremental
// cluster-size histogram consistent with ClusterSizes at every step.
func TestIntGraphOnlineGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const users, universe, edges = 120, 60, 2000

	batch := NewIntGraph(users, universe)
	online := NewIntGraph(0, 0)
	hist := map[int32]int64{} // component user-count → number of components
	added := 0
	addUser := func(u int) {
		for added <= u {
			if got := online.AddUser(); got != int32(added) {
				t.Fatalf("AddUser returned %d, want %d", got, added)
			}
			hist[1]++
			added++
		}
	}
	for e := 0; e < edges; e++ {
		u := rng.Intn(users)
		h := rng.Intn(universe)
		addUser(u)
		online.EnsureUniverse(h + 1)
		want := batch.AddObservation(int32(u), int32(h))
		a, b, merged := online.Observe(int32(u), int32(h))
		if merged != want {
			t.Fatalf("edge %d (u%d, h%d): online merge=%v, batch merge=%v", e, u, h, merged, want)
		}
		if merged && b > 0 {
			if a < 1 {
				t.Fatalf("edge %d: merge reported user-side component size %d, want ≥1", e, a)
			}
			hist[a]--
			if hist[a] == 0 {
				delete(hist, a)
			}
			hist[b]--
			if hist[b] == 0 {
				delete(hist, b)
			}
			hist[a+b]++
		}
	}
	addUser(users - 1) // any stragglers never observed
	wantHist := map[int32]int64{}
	for _, s := range online.ClusterSizes() {
		wantHist[int32(s)]++
	}
	if !reflect.DeepEqual(hist, wantHist) {
		t.Errorf("incremental histogram %v differs from ClusterSizes tally %v", hist, wantHist)
	}

	// Online labels cover only users seen so far; compare the full set.
	got, _ := online.Labels()
	want, _ := batch.Labels()
	if !reflect.DeepEqual(got, want) {
		t.Error("online labels differ from batch labels")
	}
	if online.NumClusters() != batch.NumClusters() || online.UniqueClusters() != batch.UniqueClusters() {
		t.Errorf("cluster stats differ: online (%d, %d) vs batch (%d, %d)",
			online.NumClusters(), online.UniqueClusters(), batch.NumClusters(), batch.UniqueClusters())
	}
}
