package vectors

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// fakeRender is the cache's render seam for tests: it logs every pass it
// is asked for and fails it with err when set; otherwise offset o
// fingerprints as "h<o>".
type fakeRender struct {
	passes [][]int
}

func (f *fakeRender) pass(err error) func([]int) ([]Fingerprint, error) {
	return func(offsets []int) ([]Fingerprint, error) {
		f.passes = append(f.passes, append([]int(nil), offsets...))
		if err != nil {
			return nil, err
		}
		fps := make([]Fingerprint, len(offsets))
		for i, off := range offsets {
			fps[i] = Fingerprint{Vector: FFT, Hash: fmt.Sprintf("h%d", off)}
		}
		return fps, nil
	}
}

// hashes lists the fingerprints' hashes.
func hashes(fps []Fingerprint) []string {
	out := make([]string, len(fps))
	for i, fp := range fps {
		out[i] = fp.Hash
	}
	return out
}

// TestCacheWarmLookupHits: a lookup of a memoized key renders nothing and
// counts a hit, and the hit ratio stays in (0, 1].
func TestCacheWarmLookupHits(t *testing.T) {
	c := NewCache()
	var f fakeRender
	if _, err := c.do("stack", DC, []int{0}, f.pass(nil)); err != nil {
		t.Fatal(err)
	}
	fps, err := c.do("stack", DC, []int{0}, func([]int) ([]Fingerprint, error) {
		t.Error("render ran on a warm key")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashes(fps); !reflect.DeepEqual(got, []string{"h0"}) {
		t.Errorf("warm lookup got %q, want [h0]", got)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if r := c.Stats().HitRatio(); r <= 0 || r > 1 {
		t.Errorf("hit ratio %v out of (0, 1]", r)
	}
}

// TestCachePartialLookupRendersMissing: a lookup that overlaps the memo
// takes the memoized offsets and renders the others in one pass.
func TestCachePartialLookupRendersMissing(t *testing.T) {
	c := NewCache()
	var f fakeRender
	if _, err := c.do("stack", FFT, []int{0, 2, 3, 5}, f.pass(nil)); err != nil {
		t.Fatal(err)
	}
	fps, err := c.do("stack", FFT, []int{0, 1, 3, 4}, f.pass(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashes(fps), []string{"h0", "h1", "h3", "h4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("partial overlap got %q, want %q", got, want)
	}
	if got, want := f.passes, [][]int{{0, 2, 3, 5}, {1, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("passes = %v, want %v", got, want)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 6 || st.Entries != 6 {
		t.Errorf("stats = %+v, want 2 hits, 6 misses, 6 entries", st)
	}
}

// TestCacheErrorNotCached: a failed render is reported but leaves no
// entry, so the next lookup retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("render failed")
	var f fakeRender
	if _, err := c.do("stack", FFT, []int{0}, f.pass(boom)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len %d", c.Len())
	}
	fps, err := c.do("stack", FFT, []int{0}, f.pass(nil))
	if err != nil || fps[0].Hash != "h0" {
		t.Fatalf("retry after error = %v, %v", fps, err)
	}
}
