package collate

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPaperFigure4 reproduces the paper's worked example (Fig. 4): 9
// elementary fingerprints across 4 users collate into 3 clusters — one
// shared by U1,U2 and two unique — and a fifth user bridging eFP6/eFP9
// merges the second and third clusters.
func TestPaperFigure4(t *testing.T) {
	g := NewGraph()
	// U1: eFP1..eFP3; U2: eFP3..eFP5; U3: eFP6,eFP7; U4: eFP8,eFP9.
	obs := map[string][]string{
		"U1": {"eFP1", "eFP2", "eFP3"},
		"U2": {"eFP3", "eFP4", "eFP5"},
		"U3": {"eFP6", "eFP7"},
		"U4": {"eFP8", "eFP9"},
	}
	for _, u := range []string{"U1", "U2", "U3", "U4"} {
		for _, h := range obs[u] {
			g.AddObservation(u, h)
		}
	}
	if got := g.NumClusters(); got != 3 {
		t.Fatalf("clusters = %d, want 3", got)
	}
	c1, _ := g.ClusterOf("U1")
	c2, _ := g.ClusterOf("U2")
	c3, _ := g.ClusterOf("U3")
	c4, _ := g.ClusterOf("U4")
	if c1 != c2 {
		t.Error("U1 and U2 should share a cluster")
	}
	if c3 == c4 || c3 == c1 || c4 == c1 {
		t.Error("U3 and U4 should be unique clusters")
	}
	if got := g.UniqueClusters(); got != 2 {
		t.Errorf("unique clusters = %d, want 2", got)
	}

	// New user U5 bridges eFP6 and eFP9: merges U3's and U4's clusters.
	// Joining U3's cluster is not itself a merge; the bridge is.
	if g.AddObservation("U5", "eFP6") {
		t.Error("a new user joining a cluster reported a merge")
	}
	if !g.AddObservation("U5", "eFP9") {
		t.Error("bridging observation did not report a merge")
	}
	if got := g.NumClusters(); got != 2 {
		t.Fatalf("after merge: clusters = %d, want 2", got)
	}
	c3, _ = g.ClusterOf("U3")
	c4, _ = g.ClusterOf("U4")
	c5, _ := g.ClusterOf("U5")
	if c3 != c4 || c4 != c5 {
		t.Error("U3, U4, U5 should share one cluster after bridging")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph()
	g.AddObservation("a", "h1")
	g.AddObservation("a", "h2")
	g.AddObservation("b", "h3")
	if g.NumUsers() != 2 || g.NumFingerprints() != 3 {
		t.Fatalf("users=%d fps=%d", g.NumUsers(), g.NumFingerprints())
	}
	if g.NumClusters() != 2 || g.UniqueClusters() != 2 {
		t.Errorf("clusters=%d unique=%d, want 2/2", g.NumClusters(), g.UniqueClusters())
	}
	if _, ok := g.ClusterOf("zz"); ok {
		t.Error("ClusterOf unknown user reported ok")
	}
	a, _ := g.ClusterOf("a")
	b, _ := g.ClusterOf("b")
	if a == b {
		t.Error("a and b should have different clusters")
	}
	// A repeated observation changes nothing.
	if g.AddObservation("a", "h1") || g.NumUsers() != 2 || g.NumFingerprints() != 3 {
		t.Error("repeated observation changed the graph")
	}
}

func TestMatchSemantics(t *testing.T) {
	g := NewGraph()
	g.AddObservation("u1", "h1")
	g.AddObservation("u1", "h2")
	g.AddObservation("u2", "h3")

	c1, _ := g.ClusterOf("u1")
	if c, res := g.Match([]string{"h2"}); res != MatchUnique || c != c1 {
		t.Errorf("Match(h2) = (%d,%v), want (%d,unique)", c, res, c1)
	}
	if _, res := g.Match([]string{"nope"}); res != MatchNone {
		t.Errorf("Match(unknown) = %v, want none", res)
	}
	if _, res := g.Match([]string{"h1", "h3"}); res != MatchAmbiguous {
		t.Errorf("Match(h1,h3) = %v, want ambiguous", res)
	}
	if c, res := g.Match([]string{"h1", "nope", "h2"}); res != MatchUnique || c != c1 {
		t.Errorf("Match with partial unknowns = (%d,%v)", c, res)
	}
	// An empty set carries no evidence; a set of only unknown hashes is
	// evidence that matched nothing.
	if _, res := g.Match(nil); res != MatchNoEvidence {
		t.Errorf("Match(empty) = %v, want no_evidence", res)
	}
	if _, res := g.Match([]string{"nope", "also-nope"}); res != MatchNone {
		t.Errorf("Match(all unknown) = %v, want none", res)
	}
}

// TestClusterCountInvariant: for any observation stream, the number of
// clusters equals users minus the merging edges among user-reachable parts —
// verified against a naive recomputation.
func TestClusterCountInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		type edge struct{ u, h string }
		var edges []edge
		for i := 0; i < 80; i++ {
			u := fmt.Sprintf("u%d", rng.Intn(15))
			h := fmt.Sprintf("h%d", rng.Intn(25))
			g.AddObservation(u, h)
			edges = append(edges, edge{u, h})
		}
		// Naive recount via label propagation.
		labels := map[string]string{}
		var find func(x string) string
		find = func(x string) string {
			if labels[x] == x {
				return x
			}
			labels[x] = find(labels[x])
			return labels[x]
		}
		for _, e := range edges {
			for _, k := range []string{"U:" + e.u, "H:" + e.h} {
				if _, ok := labels[k]; !ok {
					labels[k] = k
				}
			}
			ra, rb := find("U:"+e.u), find("H:"+e.h)
			if ra != rb {
				labels[rb] = ra
			}
		}
		distinct := map[string]struct{}{}
		for k := range labels {
			if k[0] == 'U' {
				distinct[find(k)] = struct{}{}
			}
		}
		sizes := map[string]int{}
		for k := range labels {
			if k[0] == 'U' {
				sizes[find(k)]++
			}
		}
		unique := 0
		for _, n := range sizes {
			if n == 1 {
				unique++
			}
		}
		return g.NumClusters() == len(distinct) && g.UniqueClusters() == unique
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGraphInsert(b *testing.B) {
	g := NewGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.AddObservation(fmt.Sprintf("u%d", i%10000), fmt.Sprintf("h%d", i%3000))
	}
}

func BenchmarkGraphClusterOf(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 10000; i++ {
		g.AddObservation(fmt.Sprintf("u%d", i), fmt.Sprintf("h%d", i%500))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClusterOf(fmt.Sprintf("u%d", i%10000))
	}
}
