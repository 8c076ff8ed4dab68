// Package collate implements the paper's graph-based fingerprint collation
// (§3.2): an undirected bipartite graph with one node per user and one node
// per elementary fingerprint, an edge whenever a user's browser emitted that
// fingerprint, and connected components as the collated fingerprints. Users
// in one component share a collated fingerprint; a component with a single
// user is a unique fingerprint.
//
// IntGraph is the one connectivity implementation: an incremental-only
// disjoint-set forest (path halving, union by user count) over dense int32
// IDs — the fingerprinter data structure the paper's §3.2 scalability
// argument assumes. Graph is a string interner in front of it for callers
// that observe raw user ids and hashes. UserSets is one user's side of the
// seven audio vectors' graphs, the per-user sets the served planes keep,
// and Interner is the one ID space a served plane's engines number
// fingerprints and surface values in.
package collate

// IntGraph is the dense, int-keyed bipartite collation graph: users and
// elementary fingerprints are identified by dense int32 IDs (assigned up
// front by study.Index, or online as a stream reveals them), so
// AddObservation performs no map probes and no string hashing — just two
// array reads and a union-find merge. The analysis sweeps (Fig. 5,
// Table 6, Fig. 9, §5) build thousands of these per run.
//
// Element layout: userElem maps a dense user ID to its union-find element;
// fingerprints are appended lazily as they are first observed, with
// fpElem mapping a dense fingerprint ID from the interning universe to
// its element (or -1 when not yet seen by this graph). size counts the
// users in a component (fingerprint elements weigh zero), which lets the
// online path report exact component sizes without a sweep.
//
// Two construction styles share the same representation: the batch path
// (NewIntGraph with the population and universe fixed up front) and the
// online path (start empty, AddUser/EnsureUniverse as the stream reveals
// new users and values, Observe per record). Both yield identical
// partitions and labels for the same observation multiset.
//
// Concurrency: Labels, ClusterSizes, NumClusters, UniqueClusters,
// NumUsers, NumFingerprints and Clone write nothing, and neither does
// Merge to the graph it reads from, so any number of goroutines may call
// them on a graph that no one is writing. Every other method writes:
// AddUser, EnsureUniverse, AddObservation, Observe and Merge grow the
// forest, and ClusterOf and Match halve the paths they walk.
type IntGraph struct {
	numUsers int
	numFPs   int     // distinct fingerprints observed by this graph
	userElem []int32 // user ID → element
	fpElem   []int32 // fingerprint ID → element, -1 = absent
	parent   []int32
	size     []int32 // users per component root (fp elements weigh 0)
}

// NewIntGraph returns an empty graph over a fixed population of numUsers
// users and an interning universe of fpUniverse distinct fingerprint IDs.
// Both may be zero: the online path grows users with AddUser and the
// universe with EnsureUniverse.
func NewIntGraph(numUsers, fpUniverse int) *IntGraph {
	g := &IntGraph{
		numUsers: numUsers,
		userElem: make([]int32, numUsers),
		fpElem:   make([]int32, fpUniverse),
		parent:   make([]int32, numUsers, numUsers+fpUniverse),
		size:     make([]int32, numUsers, numUsers+fpUniverse),
	}
	for i := range g.fpElem {
		g.fpElem[i] = -1
	}
	for i := range g.parent {
		g.userElem[i] = int32(i)
		g.parent[i] = int32(i)
		g.size[i] = 1
	}
	return g
}

// NumUsers returns the current population size.
func (g *IntGraph) NumUsers() int { return g.numUsers }

// NumFingerprints returns the number of distinct fingerprints observed.
func (g *IntGraph) NumFingerprints() int { return g.numFPs }

// AddUser grows the population by one singleton user and returns its dense
// ID — the online counterpart of sizing the population in NewIntGraph.
func (g *IntGraph) AddUser() int32 {
	e := int32(len(g.parent))
	g.parent = append(g.parent, e)
	g.size = append(g.size, 1)
	g.userElem = append(g.userElem, e)
	g.numUsers++
	return int32(g.numUsers - 1)
}

// EnsureUniverse grows the fingerprint interning universe so IDs in [0, n)
// are addressable. Newly covered IDs are absent until first observed.
func (g *IntGraph) EnsureUniverse(n int) {
	for len(g.fpElem) < n {
		g.fpElem = append(g.fpElem, -1)
	}
}

func (g *IntGraph) find(x int32) int32 {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]] // path halving
		x = g.parent[x]
	}
	return x
}

// root is find without path halving: the walk of the read-only methods.
// Union by user count keeps it logarithmic.
func (g *IntGraph) root(x int32) int32 {
	for g.parent[x] != x {
		x = g.parent[x]
	}
	return x
}

// union merges the components of elements a and b. When it merges two
// distinct components it reports their pre-merge user counts.
func (g *IntGraph) union(a, b int32) (aUsers, bUsers int32, merged bool) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return 0, 0, false
	}
	ua, ub := g.size[ra], g.size[rb]
	if ua < ub {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	g.size[ra] = ua + ub
	return ua, ub, true
}

// AddObservation records that user (a dense ID in [0, NumUsers)) emitted
// fingerprint fp (a dense ID in [0, fpUniverse)). It reports whether the
// edge merged two previously distinct components.
func (g *IntGraph) AddObservation(user, fp int32) bool {
	_, _, merged := g.Observe(user, fp)
	return merged
}

// Observe is AddObservation with merge bookkeeping for incremental
// consumers: when the edge merges two union-find components, aUsers and
// bUsers are the user counts of the user's and the fingerprint's
// component immediately before the merge. A freshly created fingerprint
// element reports merged=true with bUsers == 0 — an attachment to the
// user's component, not a merge of two user clusters. Two user clusters
// merged exactly when merged && bUsers > 0; a caller maintaining a
// cluster-size histogram then applies hist[aUsers]--, hist[bUsers]--,
// hist[aUsers+bUsers]++.
func (g *IntGraph) Observe(user, fp int32) (aUsers, bUsers int32, merged bool) {
	return g.union(g.userElem[user], g.fpNode(fp))
}

// fpNode returns fp's union-find element, materializing it as a fresh
// zero-weight singleton on first sight.
func (g *IntGraph) fpNode(fp int32) int32 {
	fn := g.fpElem[fp]
	if fn < 0 {
		fn = int32(len(g.parent))
		g.parent = append(g.parent, fn)
		g.size = append(g.size, 0)
		g.fpElem[fp] = fn
		g.numFPs++
	}
	return fn
}

// Clone returns a deep copy of g sharing no state with the original — the
// building block snapshot/merge consumers use to work on a frozen graph
// while the live one keeps growing.
func (g *IntGraph) Clone() *IntGraph {
	return &IntGraph{
		numUsers: g.numUsers,
		numFPs:   g.numFPs,
		userElem: append([]int32(nil), g.userElem...),
		fpElem:   append([]int32(nil), g.fpElem...),
		parent:   append([]int32(nil), g.parent...),
		size:     append([]int32(nil), g.size...),
	}
}

// Merge folds other's connected components into g — the cross-shard union
// of the collation graph.
//
// The remap contract: g and other number fingerprints in one universe
// (the shard engines of a plane share one Interner), so a fingerprint ID
// means the same in both, and Merge grows g's universe to other's. Users
// are numbered per graph, so the caller supplies the translation:
// userMap[u] is the g-user every other-user u maps to; it must be
// injective and every mapped ID must already exist in g (AddUser /
// NewIntGraph population). A fingerprint both graphs observed is how
// cross-shard clusters join; where their fingerprints are disjoint, Merge
// is a plain disjoint union of partitions.
//
// After Merge, g's partition is the join of the two partitions under the
// mapping: ClusterSizes/Labels/NumClusters over g are identical to a graph
// built from the union of both observation multisets, which is what makes
// a sharded replay bit-identical to the single-engine result. Merging an
// empty graph is a no-op; merging g into itself under the identity map
// leaves the partition unchanged. Merge only reads other.
// O((users+fps)·log) — no per-edge replay.
func (g *IntGraph) Merge(other *IntGraph, userMap []int32) {
	if len(userMap) < other.numUsers {
		panic("collate: Merge userMap shorter than other's population")
	}
	g.EnsureUniverse(len(other.fpElem))
	// gElem translates other's element index into g's element index.
	gElem := make([]int32, len(other.parent))
	for i := range gElem {
		gElem[i] = -1
	}
	for u := 0; u < other.numUsers; u++ {
		gElem[other.userElem[u]] = g.userElem[userMap[u]]
	}
	for f, e := range other.fpElem {
		if e >= 0 {
			gElem[e] = g.fpNode(int32(f))
		}
	}
	// Union every element with its root, translated. This transfers the
	// full partition without knowing the original edges.
	for e := range gElem {
		if gElem[e] < 0 {
			continue
		}
		g.union(gElem[e], gElem[other.root(int32(e))])
	}
}

// ClusterOf returns the canonical element of the user's component. Valid
// only for the graph's current state.
func (g *IntGraph) ClusterOf(user int32) int32 { return g.find(g.userElem[user]) }

// Labels returns each user's cluster label as a dense int32 in [0, k),
// canonicalized by first appearance in user order, the form
// cluster.PairwiseAMI takes, and the number of clusters k. Equal
// partitions therefore get equal label vectors, and their AMI values are
// bit-identical. It walks each user to its root without path halving
// (root), so it writes nothing.
func (g *IntGraph) Labels() (labels []int32, k int) {
	canon := make([]int32, len(g.parent))
	for i := range canon {
		canon[i] = -1
	}
	labels = make([]int32, g.numUsers)
	for u := range labels {
		root := g.root(g.userElem[u])
		if canon[root] < 0 {
			canon[root] = int32(k)
			k++
		}
		labels[u] = canon[root]
	}
	return labels, k
}

// NumClusters returns the number of components containing at least one
// user.
func (g *IntGraph) NumClusters() int {
	_, k := g.Labels()
	return k
}

// ClusterSizes returns the user count of every cluster in first-appearance
// order (not sorted).
func (g *IntGraph) ClusterSizes() []int {
	labels, k := g.Labels()
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// UniqueClusters returns how many clusters contain exactly one user.
func (g *IntGraph) UniqueClusters() int {
	n := 0
	for _, s := range g.ClusterSizes() {
		if s == 1 {
			n++
		}
	}
	return n
}

// MatchResult is the outcome of matching a returning visitor's fingerprints
// against a training graph (the §3.3 "fingerprint match score" primitive).
type MatchResult int

const (
	// MatchNone means fingerprints were submitted but none was ever seen —
	// the visitor presented evidence and it matched nothing.
	MatchNone MatchResult = iota
	// MatchUnique means all recognized fingerprints point to one cluster.
	MatchUnique
	// MatchAmbiguous means recognized fingerprints span several clusters —
	// which cannot persist: inserting them would merge those clusters.
	MatchAmbiguous
	// MatchNoEvidence means the submitted set was empty: there was nothing
	// to match. Distinct from MatchNone, where evidence existed but was
	// unrecognized.
	MatchNoEvidence
)

// Match looks up a set of fingerprint IDs without inserting them and
// reports which existing cluster they identify. An empty fps slice returns
// MatchNoEvidence (nothing was submitted); a non-empty slice of IDs this
// graph never observed returns MatchNone (evidence was submitted and
// recognized nothing). It allocates nothing for the common ≤ 16-distinct-root
// case.
func (g *IntGraph) Match(fps []int32) (cluster int32, res MatchResult) {
	if len(fps) == 0 {
		return 0, MatchNoEvidence
	}
	var roots [16]int32
	found := roots[:0]
	for _, fp := range fps {
		if int(fp) >= len(g.fpElem) {
			continue
		}
		n := g.fpElem[fp]
		if n < 0 {
			continue
		}
		root := g.find(n)
		dup := false
		for _, r := range found {
			if r == root {
				dup = true
				break
			}
		}
		if !dup {
			found = append(found, root)
		}
	}
	switch len(found) {
	case 0:
		return 0, MatchNone
	case 1:
		return found[0], MatchUnique
	default:
		return 0, MatchAmbiguous
	}
}
