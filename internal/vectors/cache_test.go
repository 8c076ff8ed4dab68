package vectors

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeRender is the cache's render seam for tests: it logs every pass it
// is asked for, optionally blocks the pass until gate closes, and fails it
// with err when set; otherwise offset o fingerprints as "h<o>".
type fakeRender struct {
	mu     sync.Mutex
	passes [][]int
}

func (f *fakeRender) pass(gate <-chan struct{}, err error) func([]int) ([]Fingerprint, error) {
	return func(offsets []int) ([]Fingerprint, error) {
		f.mu.Lock()
		f.passes = append(f.passes, append([]int(nil), offsets...))
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
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

func (f *fakeRender) log() [][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]int(nil), f.passes...)
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

// TestCacheSingleflight: concurrent misses render each (key, offset)
// exactly once. N lookups of one offset run one render and share it; when
// multi-offset lookups overlap, each renders only the offsets nobody else
// has registered, in one pass, and waits for the rest; a failed pass
// reaches every waiter and is never cached.
func TestCacheSingleflight(t *testing.T) {
	t.Run("one offset", func(t *testing.T) {
		c := NewCache()
		gate := make(chan struct{})
		var f fakeRender

		const workers = 8
		var wg sync.WaitGroup
		results := make([][]Fingerprint, workers)
		errs := make([]error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Hold the render open until every waiter has arrived.
				results[g], errs[g] = c.do("stack", DC, []int{0}, f.pass(gate, nil))
			}(g)
		}

		// Wait until the other seven goroutines have joined the in-flight
		// call, then release the render.
		waitFor(t, "waiters to join", func() bool { return c.Stats().Waits == workers-1 })
		close(gate)
		wg.Wait()

		for g := 0; g < workers; g++ {
			if errs[g] != nil {
				t.Fatalf("worker %d: %v", g, errs[g])
			}
			if got := hashes(results[g]); !reflect.DeepEqual(got, []string{"h0"}) {
				t.Fatalf("worker %d got %q", g, got)
			}
		}
		if n := len(f.log()); n != 1 {
			t.Errorf("render ran %d times, want 1", n)
		}
		st := c.Stats()
		if st.Misses != 1 || st.Waits != workers-1 || st.Hits != 0 {
			t.Errorf("stats = %+v, want 1 miss, %d waits, 0 hits", st, workers-1)
		}
		if _, err := c.do("stack", DC, []int{0}, func([]int) ([]Fingerprint, error) {
			t.Error("render ran on a warm key")
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Hits != 1 {
			t.Errorf("hits = %d after warm lookup, want 1", st.Hits)
		}
		if r := c.Stats().HitRatio(); r <= 0 || r > 1 {
			t.Errorf("hit ratio %v out of (0, 1]", r)
		}
	})

	t.Run("overlapping offsets", func(t *testing.T) {
		c := NewCache()
		gate := make(chan struct{})
		var f fakeRender
		requests := [][]int{{0, 2, 5}, {2, 3}, {5}}
		results := make([][]Fingerprint, len(requests))
		errs := make([]error, len(requests))
		var wg sync.WaitGroup
		start := func(r int, render func([]int) ([]Fingerprint, error)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[r], errs[r] = c.do("stack", FFT, requests[r], render)
			}()
		}
		// {0,2,5} registers all three and holds its pass open; {2,3} then
		// renders only 3 and waits for 2, and {5} waits for 5.
		start(0, f.pass(gate, nil))
		waitFor(t, "the first pass", func() bool { return len(f.log()) == 1 })
		start(1, f.pass(nil, nil))
		start(2, f.pass(nil, nil))
		waitFor(t, "both waiters", func() bool { return c.Stats().Waits == 2 })
		waitFor(t, "the second pass", func() bool { return len(f.log()) == 2 })
		close(gate)
		wg.Wait()

		for r, req := range requests {
			if errs[r] != nil {
				t.Fatalf("request %v: %v", req, errs[r])
			}
			want := make([]string, len(req))
			for i, off := range req {
				want[i] = fmt.Sprintf("h%d", off)
			}
			if got := hashes(results[r]); !reflect.DeepEqual(got, want) {
				t.Errorf("request %v got %q, want %q", req, got, want)
			}
		}
		if got, want := f.log(), [][]int{{0, 2, 5}, {3}}; !reflect.DeepEqual(got, want) {
			t.Errorf("passes = %v, want %v (each offset exactly once)", got, want)
		}
		if st := c.Stats(); st.Misses != 4 || st.Waits != 2 || st.Hits != 0 || st.Entries != 4 {
			t.Errorf("stats = %+v, want 4 misses, 2 waits, 0 hits, 4 entries", st)
		}

		// A partial overlap with the memo renders only its missing
		// offsets, in one pass.
		fps, err := c.do("stack", FFT, []int{0, 1, 3, 4}, f.pass(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hashes(fps), []string{"h0", "h1", "h3", "h4"}; !reflect.DeepEqual(got, want) {
			t.Errorf("partial overlap got %q, want %q", got, want)
		}
		if got := f.log(); !reflect.DeepEqual(got[2:], [][]int{{1, 4}}) {
			t.Errorf("partial overlap passes = %v, want [[1 4]]", got[2:])
		}
		if st := c.Stats(); st.Hits != 2 || st.Misses != 6 {
			t.Errorf("stats = %+v after partial overlap, want 2 hits, 6 misses", st)
		}
	})

	t.Run("error reaches every waiter", func(t *testing.T) {
		c := NewCache()
		gate := make(chan struct{})
		boom := errors.New("render failed")
		var f fakeRender
		requests := [][]int{{7, 8}, {8, 9}, {7}}
		errs := make([]error, len(requests))
		var wg sync.WaitGroup
		start := func(r int, render func([]int) ([]Fingerprint, error)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = c.do("stack", AM, requests[r], render)
			}()
		}
		start(0, f.pass(gate, boom))
		waitFor(t, "the failing pass", func() bool { return len(f.log()) == 1 })
		start(1, f.pass(nil, nil))
		start(2, f.pass(nil, nil))
		waitFor(t, "both waiters", func() bool { return c.Stats().Waits == 2 })
		waitFor(t, "the second pass", func() bool { return len(f.log()) == 2 })
		close(gate)
		wg.Wait()

		for r, req := range requests {
			if !errors.Is(errs[r], boom) {
				t.Errorf("request %v: err = %v, want %v", req, errs[r], boom)
			}
		}
		// Only the successful pass ({9}) was memoized.
		if c.Len() != 1 {
			t.Fatalf("cache len %d after a failed pass, want 1", c.Len())
		}
		fps, err := c.do("stack", AM, []int{7, 8, 9}, f.pass(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hashes(fps), []string{"h7", "h8", "h9"}; !reflect.DeepEqual(got, want) {
			t.Errorf("retry got %q, want %q", got, want)
		}
		if got, want := f.log(), [][]int{{7, 8}, {9}, {7, 8}}; !reflect.DeepEqual(got, want) {
			t.Errorf("passes = %v, want %v", got, want)
		}
	})
}

// TestCacheErrorNotCached: a failed render is reported to every waiter but
// leaves no entry, so the next lookup retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("render failed")
	var f fakeRender
	if _, err := c.do("stack", FFT, []int{0}, f.pass(nil, boom)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len %d", c.Len())
	}
	fps, err := c.do("stack", FFT, []int{0}, f.pass(nil, nil))
	if err != nil || fps[0].Hash != "h0" {
		t.Fatalf("retry after error = %v, %v", fps, err)
	}
}

// TestCacheMaxEntries: the entry bound holds and evictions are counted.
func TestCacheMaxEntries(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(3)
	var f fakeRender
	for i := 0; i < 6; i++ {
		if _, err := c.do("stack", DC, []int{i}, f.pass(nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 3 {
		t.Errorf("len %d exceeds bound 3", c.Len())
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	// Shrinking evicts immediately.
	c.SetMaxEntries(1)
	if c.Len() > 1 {
		t.Errorf("len %d after shrinking bound to 1", c.Len())
	}
	// Restoring unbounded keeps entries.
	c.SetMaxEntries(0)
	if _, err := c.do("stack", DC, []int{100}, f.pass(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("len %d after unbounding, want 2", c.Len())
	}
}
