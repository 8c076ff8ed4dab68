package collate

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vectors"
)

// TestNumVectorsMatchesVectorsAll: callers index a UserSets by vectors.ID
// (verify) and by position in vectors.All (streaming), so the width must
// be len(vectors.All) and vectors.All must be in ID order.
func TestNumVectorsMatchesVectorsAll(t *testing.T) {
	if len(vectors.All) != NumVectors {
		t.Fatalf("len(vectors.All) = %d, NumVectors = %d", len(vectors.All), NumVectors)
	}
	for i, v := range vectors.All {
		if int(v) != i {
			t.Errorf("vectors.All[%d] = %v (ID %d), want ID %d", i, v, int(v), i)
		}
	}
}

// TestUserSetsMatchesOracle: random out-of-order inserts with repeats,
// on every vector and with some vectors left empty, against a map of sets.
// After every insert each vector's Set must be the oracle's set in order,
// and Insert must report whether the ID was new.
func TestUserSetsMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Some vectors take no inserts, so empty sets sit before, between
		// and after full ones.
		var live []int
		for v := 0; v < NumVectors; v++ {
			if rng.Intn(3) > 0 {
				live = append(live, v)
			}
		}
		var u UserSets
		oracle := make([]map[int32]bool, NumVectors)
		for v := range oracle {
			oracle[v] = map[int32]bool{}
		}
		check := func(step int) {
			t.Helper()
			for v := 0; v < NumVectors; v++ {
				want := make([]int32, 0, len(oracle[v]))
				for id := range oracle[v] {
					want = append(want, id)
				}
				slices.Sort(want)
				if got := u.Set(v); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Set(%d) = %v, want %v", seed, step, v, got, want)
				}
			}
		}
		check(-1)
		if len(live) == 0 {
			continue
		}
		universe := int32(1 + rng.Intn(30))
		for step := 0; step < 200; step++ {
			v := live[rng.Intn(len(live))]
			id := rng.Int31n(universe)
			isNew := !oracle[v][id]
			oracle[v][id] = true
			if got := u.Insert(v, id); got != isNew {
				t.Fatalf("seed %d step %d: Insert(%d, %d) = %v, want %v", seed, step, v, id, got, isNew)
			}
			check(step)
		}
	}
}

// TestUserSetsZeroValue: the zero value answers every vector with an
// empty set, and a first insert on the last vector leaves the others
// empty.
func TestUserSetsZeroValue(t *testing.T) {
	var u UserSets
	for v := 0; v < NumVectors; v++ {
		if got := u.Set(v); len(got) != 0 {
			t.Errorf("zero Set(%d) = %v", v, got)
		}
	}
	if !u.Insert(NumVectors-1, 5) || u.Insert(NumVectors-1, 5) {
		t.Fatal("Insert(last, 5) twice did not report new then repeat")
	}
	for v := 0; v < NumVectors-1; v++ {
		if got := u.Set(v); len(got) != 0 {
			t.Errorf("Set(%d) = %v after an insert on vector %d", v, got, NumVectors-1)
		}
	}
	if got := u.Set(NumVectors - 1); !slices.Equal(got, []int32{5}) {
		t.Errorf("Set(last) = %v, want [5]", got)
	}
}
