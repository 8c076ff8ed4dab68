package streaming_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// The merge algebra property: streaming.State.Merge over any user-disjoint
// split of a record stream — any number of parts, merged in any order and
// any fold shape — must produce exactly the payloads of one engine that
// ingested the whole stream, and NewState() must be a two-sided identity.
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
// maintain. Also returns the reference payloads of one engine over the
// whole stream.
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
	for i, part := range parts {
		eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
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
		m, err := acc.Merge(s)
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
// random split arity, random merge order — merged payloads equal the
// single-engine reference exactly, commutativity holds pairwise, and
// NewState is a two-sided identity.
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

		// Commutativity on the first pair.
		if nParts >= 2 {
			ab, err := states[0].Merge(states[1])
			if err != nil {
				t.Fatal(err)
			}
			ba, err := states[1].Merge(states[0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(payloadsOf(ab), payloadsOf(ba)) {
				t.Fatalf("case %d: Merge not commutative", c)
			}
		}

		// Identity on both sides of the full merge.
		li, err := streaming.NewState().Merge(merged)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := merged.Merge(streaming.NewState())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(payloadsOf(li), want) || !reflect.DeepEqual(payloadsOf(ri), want) {
			t.Fatalf("case %d: NewState is not a merge identity", c)
		}
	}
}

// TestStateMergeAssociative: (a·b)·c == a·(b·c), payload-for-payload.
func TestStateMergeAssociative(t *testing.T) {
	for c := 0; c < 40; c++ {
		rng := rand.New(rand.NewSource(int64(777 + c)))
		recs := genRecords(rng)
		states, want := splitStates(t, recs, 3, rng)
		a, b, d := states[0], states[1], states[2]

		ab, err := a.Merge(b)
		if err != nil {
			t.Fatal(err)
		}
		left, err := ab.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := b.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		right, err := a.Merge(bd)
		if err != nil {
			t.Fatal(err)
		}
		lp, rp := payloadsOf(left), payloadsOf(right)
		if !reflect.DeepEqual(lp, rp) {
			t.Fatalf("case %d: Merge not associative", c)
		}
		if !reflect.DeepEqual(lp, want) {
			t.Fatalf("case %d: associative fold differs from single engine", c)
		}
	}
}

// TestStateMergeRejectsOverlap: sharing a user across states is a routing
// bug and must be reported, not silently double-counted.
func TestStateMergeRejectsOverlap(t *testing.T) {
	mk := func() *streaming.State {
		eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
		defer eng.Close()
		eng.Apply([]storage.Record{{UserID: "dup", Vector: "DC", Hash: "h"}})
		return eng.State()
	}
	if _, err := mk().Merge(mk()); err == nil {
		t.Fatal("Merge of states sharing a user succeeded, want error")
	}
}
