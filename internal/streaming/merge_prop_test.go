package streaming_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collate"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// The merge algebra property: streaming.Merge over any user-disjoint split
// of a record stream — any number of parts, merged in one call or folded
// pairwise, in any order and any fold shape — must produce exactly the
// payloads of one engine that ingested the whole stream, and NewState()
// must be a two-sided identity.
// This is the correctness contract the shard router rests on (DESIGN.md
// §14); the differential HTTP test in internal/shard exercises the same
// property end-to-end at paper scale.

// statePayloads flattens every served quantity of a State for comparison.
type statePayloads struct {
	Users     []string
	Diversity streaming.EntropySnapshot
	Clusters  streaming.ClusterSnapshot
	Stability streaming.StabilitySnapshot
	AMI       *streaming.AMISnapshot
	Labels    map[vectors.ID][]int
	Distinct  map[vectors.ID][]int
}

func payloadsOf(s *streaming.State) statePayloads {
	p := statePayloads{
		Users:     s.Users,
		Diversity: s.Diversity(),
		Clusters:  s.Clusters(),
		Stability: s.Stability(),
		AMI:       s.AMI(),
		Labels:    map[vectors.ID][]int{},
		Distinct:  map[vectors.ID][]int{},
	}
	for _, v := range vectors.All {
		p.Labels[v] = s.Labels(v)
		p.Distinct[v] = s.DistinctPerUser(v)
	}
	return p
}

func enginePayloads(e *streaming.Engine) statePayloads {
	st := e.State()
	p := statePayloads{
		Users:     st.Users,
		Diversity: e.Diversity(),
		Clusters:  e.Clusters(),
		Stability: e.Stability(),
		AMI:       e.RefreshAMI(),
		Labels:    map[vectors.ID][]int{},
		Distinct:  map[vectors.ID][]int{},
	}
	for _, v := range vectors.All {
		p.Labels[v] = st.Labels(v)
		p.Distinct[v] = st.DistinctPerUser(v)
	}
	return p
}

// genRecords builds a small synthetic stream exercising the merge surface:
// cross-user fingerprint sharing (tiny hash pool), unparseable auxiliary
// vectors, User-Agent and surface churn.
func genRecords(rng *rand.Rand) []storage.Record {
	nUsers := 3 + rng.Intn(28)
	hashPool := 2 + rng.Intn(10)
	nRecs := nUsers + rng.Intn(6*nUsers)
	recs := make([]storage.Record, 0, nRecs)
	for i := 0; i < nRecs; i++ {
		u := rng.Intn(nUsers)
		r := storage.Record{UserID: fmt.Sprintf("user-%03d", u)}
		if rng.Float64() < 0.1 {
			r.Vector = "aux" // unparseable: user/surface bookkeeping only
		} else {
			r.Vector = vectors.All[rng.Intn(len(vectors.All))].String()
			r.Hash = fmt.Sprintf("h%02d", rng.Intn(hashPool))
		}
		if rng.Float64() < 0.3 {
			r.UserAgent = fmt.Sprintf("UA-%d", rng.Intn(4))
		}
		if rng.Float64() < 0.25 {
			r.Surfaces = map[string]string{
				study.SurfaceCanvas: fmt.Sprintf("canvas-%d", rng.Intn(5)),
			}
			if rng.Float64() < 0.5 {
				r.Surfaces[study.SurfaceFonts] = fmt.Sprintf("fonts-%d", rng.Intn(3))
			}
		}
		recs = append(recs, r)
	}
	return recs
}

// splitStates partitions recs across nParts engines by a random user
// assignment (preserving global record order within each part), snapshots
// each, and stamps the per-user global first-seen sequence a router would
// maintain. The part engines share one interner, as a router's do. Also
// returns the reference payloads of one engine over the whole stream.
func splitStates(t *testing.T, recs []storage.Record, nParts int, rng *rand.Rand) ([]*streaming.State, statePayloads) {
	t.Helper()
	ref := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer ref.Close()
	ref.Apply(recs)

	owner := map[string]int{}
	seq := map[string]int64{}
	for _, r := range recs {
		if _, ok := seq[r.UserID]; !ok {
			seq[r.UserID] = int64(len(seq))
			owner[r.UserID] = rng.Intn(nParts)
		}
	}
	parts := make([][]storage.Record, nParts)
	for _, r := range recs {
		p := owner[r.UserID]
		parts[p] = append(parts[p], r)
	}
	states := make([]*streaming.State, nParts)
	in := collate.NewInterner()
	for i, part := range parts {
		eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1, Interner: in})
		eng.Apply(part)
		s := eng.State()
		eng.Close()
		for u, id := range s.Users {
			s.Seq[u] = seq[id]
		}
		states[i] = s
	}
	return states, enginePayloads(ref)
}

func foldStates(t *testing.T, states []*streaming.State) *streaming.State {
	t.Helper()
	acc := streaming.NewState()
	for _, s := range states {
		m, err := streaming.Merge(acc, s)
		if err != nil {
			t.Fatal(err)
		}
		acc = m
	}
	return acc
}

// TestStateMatchesEngine: a single engine's State serves exactly the
// engine's own payloads — the base case of the algebra.
func TestStateMatchesEngine(t *testing.T) {
	recs := testRecords(t)
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(recs)
	want := enginePayloads(eng)
	got := payloadsOf(eng.State())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("State payloads differ from engine payloads:\n got %+v\nwant %+v", got, want)
	}
}

// TestStateMergeProperty is the ≥200-case seeded sweep: random streams,
// random split arity, random merge order — payloads merged pairwise and in
// one call equal the single-engine reference exactly, commutativity holds
// pairwise, and NewState is a two-sided identity.
func TestStateMergeProperty(t *testing.T) {
	cases := 220
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(9000 + c)))
		recs := genRecords(rng)
		nParts := 1 + rng.Intn(5)
		states, want := splitStates(t, recs, nParts, rng)

		// Merge in a random order.
		order := rng.Perm(nParts)
		shuffled := make([]*streaming.State, nParts)
		for i, j := range order {
			shuffled[i] = states[j]
		}
		merged := foldStates(t, shuffled)
		if got := payloadsOf(merged); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d parts): merged payloads differ from single engine\n got %+v\nwant %+v",
				c, nParts, got, want)
		}
		all, err := streaming.Merge(shuffled...)
		if err != nil {
			t.Fatal(err)
		}
		if got := payloadsOf(all); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d parts): one-call merge differs from single engine\n got %+v\nwant %+v",
				c, nParts, got, want)
		}

		// Commutativity on the first pair.
		if nParts >= 2 {
			ab, err := streaming.Merge(states[0], states[1])
			if err != nil {
				t.Fatal(err)
			}
			ba, err := streaming.Merge(states[1], states[0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(payloadsOf(ab), payloadsOf(ba)) {
				t.Fatalf("case %d: Merge not commutative", c)
			}
		}

		// Identity on both sides of the full merge.
		li, err := streaming.Merge(streaming.NewState(), merged)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := streaming.Merge(merged, streaming.NewState())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(payloadsOf(li), want) || !reflect.DeepEqual(payloadsOf(ri), want) {
			t.Fatalf("case %d: NewState is not a merge identity", c)
		}
	}
}

// TestStateMergeAssociative: (a·b)·c == a·(b·c) == Merge(a, b, c),
// payload-for-payload.
func TestStateMergeAssociative(t *testing.T) {
	for c := 0; c < 40; c++ {
		rng := rand.New(rand.NewSource(int64(777 + c)))
		recs := genRecords(rng)
		states, want := splitStates(t, recs, 3, rng)
		a, b, d := states[0], states[1], states[2]

		ab, err := streaming.Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		left, err := streaming.Merge(ab, d)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := streaming.Merge(b, d)
		if err != nil {
			t.Fatal(err)
		}
		right, err := streaming.Merge(a, bd)
		if err != nil {
			t.Fatal(err)
		}
		abd, err := streaming.Merge(a, b, d)
		if err != nil {
			t.Fatal(err)
		}
		lp, rp := payloadsOf(left), payloadsOf(right)
		if !reflect.DeepEqual(lp, rp) {
			t.Fatalf("case %d: Merge not associative", c)
		}
		if !reflect.DeepEqual(payloadsOf(abd), lp) {
			t.Fatalf("case %d: Merge(a, b, c) differs from both groupings", c)
		}
		if !reflect.DeepEqual(lp, want) {
			t.Fatalf("case %d: associative fold differs from single engine", c)
		}
	}
}

// TestMergeIdentities: Merge of no states serves NewState's payloads, and
// Merge of one state returns that state itself.
func TestMergeIdentities(t *testing.T) {
	empty, err := streaming.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloadsOf(empty), payloadsOf(streaming.NewState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge() payloads differ from NewState()'s:\n got %+v\nwant %+v", got, want)
	}
	rng := rand.New(rand.NewSource(5))
	states, _ := splitStates(t, genRecords(rng), 1, rng)
	if got, err := streaming.Merge(states[0]); err != nil || got != states[0] {
		t.Fatalf("Merge(s) = %p, %v; want s (%p)", got, err, states[0])
	}
}

// TestStateMergeRejectsOverlap: sharing a user across states is a routing
// bug and must be reported, not silently double-counted — also when the
// shared user sits in the first and the third of three states under
// different Seqs, so no two neighbours in the merged order share it. The
// engines share one interner, so the shared user is what is refused.
func TestStateMergeRejectsOverlap(t *testing.T) {
	in := collate.NewInterner()
	mk := func(users ...string) *streaming.State {
		eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1, Interner: in})
		defer eng.Close()
		for _, u := range users {
			eng.Apply([]storage.Record{{UserID: u, Vector: "DC", Hash: "h"}})
		}
		return eng.State()
	}
	if _, err := streaming.Merge(mk("dup"), mk("dup")); err == nil {
		t.Fatal("Merge of states sharing a user succeeded, want error")
	}
	first, second, third := mk("dup", "a"), mk("b"), mk("c", "dup")
	first.Seq = []int64{0, 1}
	second.Seq = []int64{2}
	third.Seq = []int64{3, 4}
	if _, err := streaming.Merge(first, second, third); err == nil {
		t.Fatal("Merge of three states with the first and third sharing a user succeeded, want error")
	}
}

// TestStateMergeRejectsTwoInterners: states numbered by two interners give
// one ID to different hashes, so merging them is refused, as a shared user
// is; NewState(), which holds no IDs, merges with either.
func TestStateMergeRejectsTwoInterners(t *testing.T) {
	mk := func(user, hash string) *streaming.State {
		eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
		defer eng.Close()
		eng.Apply([]storage.Record{{UserID: user, Vector: "DC", Hash: hash, UserAgent: "UA-" + hash}})
		s := eng.State()
		s.Seq[0] = int64(len(user))
		return s
	}
	a, b := mk("a", "h1"), mk("bb", "h2")
	if _, err := streaming.Merge(a, b); err == nil {
		t.Fatal("Merge of states of two interners succeeded, want error")
	}
	if _, err := streaming.Merge(streaming.NewState(), a, streaming.NewState(), b); err == nil {
		t.Fatal("Merge of states of two interners beside NewState() succeeded, want error")
	}
	for _, s := range []*streaming.State{a, b} {
		m, err := streaming.Merge(streaming.NewState(), s)
		if err != nil {
			t.Fatalf("Merge(NewState(), s): %v", err)
		}
		if !reflect.DeepEqual(payloadsOf(m), payloadsOf(s)) {
			t.Fatal("Merge(NewState(), s) payloads differ from s's")
		}
	}
}
