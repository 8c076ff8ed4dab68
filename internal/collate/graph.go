package collate

// Graph is the string-keyed face of the collation graph, for callers whose
// observations arrive as user ids and hash strings (core.Tracker, the
// defense evaluation, the longitudinal study). It interns both to dense
// int32 IDs in first-seen order and keeps connectivity in an IntGraph, so
// it partitions users exactly as IntGraph does over the interned stream.
type Graph struct {
	users map[string]int32 // user id → dense user ID
	fps   map[string]int32 // fingerprint hash → dense fingerprint ID
	ig    *IntGraph
}

// NewGraph returns an empty collation graph.
func NewGraph() *Graph {
	return &Graph{
		users: make(map[string]int32),
		fps:   make(map[string]int32),
		ig:    NewIntGraph(0, 0),
	}
}

// NumUsers returns the number of distinct users observed.
func (g *Graph) NumUsers() int { return len(g.users) }

// NumFingerprints returns the number of distinct elementary fingerprints.
func (g *Graph) NumFingerprints() int { return len(g.fps) }

// AddObservation records that user emitted the elementary fingerprint hash,
// creating nodes as needed. It reports whether the edge merged two
// collated fingerprints that both existed before the call — the "new
// collisions can pop up" dynamic of §3.2. A first-seen user joining an
// existing cluster is not a merge: the cluster gains a member, and the
// number of clusters stays the same.
func (g *Graph) AddObservation(user, hash string) (merged bool) {
	u, known := g.users[user]
	if !known {
		u = g.ig.AddUser()
		g.users[user] = u
	}
	f, ok := g.fps[hash]
	if !ok {
		f = int32(len(g.fps))
		g.fps[hash] = f
		g.ig.EnsureUniverse(len(g.fps))
	}
	_, fpUsers, joined := g.ig.Observe(u, f)
	return known && joined && fpUsers > 0
}

// ClusterOf returns a canonical identifier of the user's collated
// fingerprint (its connected component). The identifier is stable only for
// the graph's current state. ok is false for unknown users.
func (g *Graph) ClusterOf(user string) (id int, ok bool) {
	u, ok := g.users[user]
	if !ok {
		return 0, false
	}
	return int(g.ig.ClusterOf(u)), true
}

// NumClusters returns the number of collated fingerprints: connected
// components containing at least one user.
func (g *Graph) NumClusters() int { return g.ig.NumClusters() }

// UniqueClusters returns how many clusters contain exactly one user (the
// "Unique" column of the paper's Tables 2–4).
func (g *Graph) UniqueClusters() int { return g.ig.UniqueClusters() }

// Match looks up a set of elementary fingerprints without inserting them
// and returns which existing cluster they identify, in ClusterOf's
// identifiers. An empty set returns MatchNoEvidence; a non-empty set in
// which nothing is recognized returns MatchNone.
func (g *Graph) Match(hashes []string) (cluster int, res MatchResult) {
	if len(hashes) == 0 {
		return 0, MatchNoEvidence
	}
	ids := make([]int32, 0, len(hashes))
	for _, h := range hashes {
		if f, ok := g.fps[h]; ok {
			ids = append(ids, f)
		}
	}
	if len(ids) == 0 {
		// Evidence was submitted and none of it is known. IntGraph.Match
		// would read an empty ID list as no evidence at all.
		return 0, MatchNone
	}
	c, res := g.ig.Match(ids)
	return int(c), res
}
