package collate

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// internKey is one (space, value) pair a test batch names; space -1 asks
// for nothing.
type internKey struct {
	space int
	v     string
}

func keyOf(keys []internKey) func(i int) (int, string) {
	return func(i int) (int, string) { return keys[i].space, keys[i].v }
}

// TestInternerNumbering: IDs are dense per space in first-intern order, a
// batch repeating a value, in a run or apart, gets one ID for it, equal
// strings in two spaces get each space's own ID, "" is 0 in the surface
// space, a skipped key reads -1, and Lookup finds what Intern gave and
// inserts nothing.
func TestInternerNumbering(t *testing.T) {
	in := NewInterner()
	keys := []internKey{{3, "z"}, {0, "a"}, {0, "a"}, {3, "a"}, {0, "b"}, {0, "a"}, {-1, "a"},
		{NumVectors, "x"}, {NumVectors, ""}, {NumVectors, "x"}, {NumVectors, "x"}}
	ids := make([]int32, len(keys))
	in.Intern(ids, keyOf(keys))
	if want := []int32{0, 0, 0, 1, 1, 0, -1, 1, 0, 1, 1}; !slices.Equal(ids, want) {
		t.Fatalf("Intern = %v, want %v", ids, want)
	}
	for s, want := range map[int]int{0: 2, 1: 0, 3: 2, NumVectors: 2} {
		if got := in.Len(s); got != want {
			t.Errorf("Len(%d) = %d, want %d", s, got, want)
		}
	}
	probe := append(slices.Clone(keys), internKey{0, "c"}, internKey{NumVectors, "y"})
	found := make([]int32, len(probe))
	in.Lookup(found, keyOf(probe))
	if want := append(slices.Clone(ids), -1, -1); !slices.Equal(found, want) {
		t.Fatalf("Lookup = %v, want %v", found, want)
	}
	if in.Len(0) != 2 || in.Len(NumVectors) != 2 {
		t.Errorf("Lookup of unseen values grew the interner: Len(0) = %d, Len(surface) = %d", in.Len(0), in.Len(NumVectors))
	}
}

// TestInternerConcurrent: goroutines intern overlapping random batches over
// every space at once, and look each batch up again beside the others'
// inserts. Afterwards every value has exactly one ID, each space's IDs are
// dense from 0 with "" at 0 in the surface space, and every ID a caller
// was handed equals a final lookup. `make stress` runs it under -race at
// -count=50.
func TestInternerConcurrent(t *testing.T) {
	const workers, batches, batchLen, values = 4, 25, 48, 60
	in := NewInterner()
	type batch struct {
		keys []internKey
		ids  []int32
	}
	got := make([][]batch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < batches; b++ {
				keys := make([]internKey, rng.Intn(batchLen))
				for i := range keys {
					keys[i] = internKey{rng.Intn(NumVectors+2) - 1, fmt.Sprintf("v%d", rng.Intn(values))}
					if rng.Intn(10) == 0 {
						keys[i].v = ""
					}
				}
				ids := make([]int32, len(keys))
				in.Intern(ids, keyOf(keys))
				again := make([]int32, len(keys))
				in.Lookup(again, keyOf(keys))
				if !slices.Equal(again, ids) {
					t.Errorf("worker %d batch %d: Lookup = %v right after Intern = %v", w, b, again, ids)
				}
				got[w] = append(got[w], batch{keys, ids})
			}
		}(w)
	}
	wg.Wait()

	seen := make([]map[string]int32, NumVectors+1)
	for s := range seen {
		seen[s] = map[string]int32{}
	}
	seen[NumVectors][""] = 0
	for w, bs := range got {
		for b, bt := range bs {
			final := make([]int32, len(bt.keys))
			in.Lookup(final, keyOf(bt.keys))
			if !slices.Equal(final, bt.ids) {
				t.Fatalf("worker %d batch %d: Intern gave %v, final Lookup %v", w, b, bt.ids, final)
			}
			for i, k := range bt.keys {
				if k.space < 0 {
					if bt.ids[i] != -1 {
						t.Fatalf("worker %d batch %d: skipped key got ID %d", w, b, bt.ids[i])
					}
					continue
				}
				seen[k.space][k.v] = bt.ids[i]
			}
		}
	}
	for s, m := range seen {
		if got := in.Len(s); got != len(m) {
			t.Errorf("space %d: Len = %d, %d distinct values interned", s, got, len(m))
		}
		owner := make([]string, len(m))
		taken := make([]bool, len(m))
		for v, id := range m {
			if id < 0 || int(id) >= len(m) {
				t.Fatalf("space %d: %q has ID %d outside 0..%d", s, v, id, len(m)-1)
			}
			if taken[id] {
				t.Fatalf("space %d: %q and %q share ID %d", s, owner[id], v, id)
			}
			owner[id], taken[id] = v, true
		}
	}
	if id := seen[NumVectors][""]; id != 0 {
		t.Errorf(`surface space: "" has ID %d, want 0`, id)
	}
}
