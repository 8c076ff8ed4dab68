package diversity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeUniform(t *testing.T) {
	// 4 users, 4 distinct values: entropy = 2 bits, normalized = 1.
	s := Summarize([]string{"a", "b", "c", "d"})
	if s.Users != 4 || s.Distinct != 4 || s.Unique != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.EntropyBits-2) > 1e-12 {
		t.Errorf("entropy = %g, want 2", s.EntropyBits)
	}
	if math.Abs(s.Normalized-1) > 1e-12 {
		t.Errorf("normalized = %g, want 1", s.Normalized)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	s := Summarize([]int{7, 7, 7, 7})
	if s.Distinct != 1 || s.Unique != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.EntropyBits != 0 || s.Normalized != 0 {
		t.Errorf("entropy = %g/%g, want 0", s.EntropyBits, s.Normalized)
	}
	one := Summarize([]int{3})
	if one.Normalized != 0 || one.EntropyBits != 0 {
		t.Errorf("single user entropy = %+v", one)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// 3 of one value, 1 of another: H = -(3/4 log 3/4 + 1/4 log 1/4).
	s := Summarize([]string{"x", "x", "x", "y"})
	want := -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))
	if math.Abs(s.EntropyBits-want) > 1e-12 {
		t.Errorf("entropy = %g, want %g", s.EntropyBits, want)
	}
	if s.Unique != 1 {
		t.Errorf("unique = %d, want 1", s.Unique)
	}
}

// TestEntropyBounds: 0 ≤ H ≤ log2(n), normalized within [0,1].
func TestEntropyBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(1 + rng.Intn(n))
		}
		s := Summarize(vals)
		return s.EntropyBits >= 0 && s.EntropyBits <= math.Log2(float64(n))+1e-9 &&
			s.Normalized >= 0 && s.Normalized <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCombine(t *testing.T) {
	a := []string{"x", "x", "y"}
	b := []string{"1", "2", "2"}
	combo, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(combo)
	if s.Distinct != 3 {
		t.Errorf("combined distinct = %d, want 3", s.Distinct)
	}
	// Combination diversity ≥ every component's (paper's §4 claim).
	if s.EntropyBits < Summarize(a).EntropyBits || s.EntropyBits < Summarize(b).EntropyBits {
		t.Error("combination entropy below a component's")
	}
	if _, err := Combine[string](); err == nil {
		t.Error("empty combine accepted")
	}
	if _, err := Combine(a, []string{"1"}); err == nil {
		t.Error("ragged combine accepted")
	}
}

// TestCombineMonotoneProperty: adding a vector never reduces entropy.
func TestCombineMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(5)
			b[i] = rng.Intn(5)
		}
		ca, err := Combine(a)
		if err != nil {
			return false
		}
		cab, err := Combine(a, b)
		if err != nil {
			return false
		}
		return Summarize(cab).EntropyBits >= Summarize(ca).EntropyBits-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCombineSeparatorAmbiguity(t *testing.T) {
	// Values that would collide under naive concatenation must not collide.
	a := []string{"ab", "a"}
	b := []string{"c", "bc"}
	combo, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if combo[0] == combo[1] {
		t.Error("tuple encoding ambiguous: (ab,c) == (a,bc)")
	}
}

func TestAnonymitySets(t *testing.T) {
	sets := AnonymitySets([]string{"a", "a", "a", "b", "c", "c"})
	if sets[3] != 1 || sets[2] != 1 || sets[1] != 1 {
		t.Errorf("anonymity sets = %v", sets)
	}
}

func TestDistinctPerGroup(t *testing.T) {
	groups := []string{"win", "win", "mac", "mac", "mac"}
	vals := []string{"f1", "f1", "f2", "f3", "f2"}
	got, err := DistinctPerGroup(groups, vals)
	if err != nil {
		t.Fatal(err)
	}
	if got["win"] != 1 || got["mac"] != 2 {
		t.Errorf("DistinctPerGroup = %v", got)
	}
	if _, err := DistinctPerGroup([]string{"a"}, []string{"x", "y"}); err == nil {
		t.Error("ragged inputs accepted")
	}
	sizes := GroupSizes(groups)
	if sizes["win"] != 2 || sizes["mac"] != 3 {
		t.Errorf("GroupSizes = %v", sizes)
	}
}

func TestHistogramAndCDF(t *testing.T) {
	h := NewHistogram([]int{1, 1, 1, 2, 2, 5})
	counts, freqs := h.SortedBins()
	if len(counts) != 3 || counts[0] != 1 || counts[2] != 5 {
		t.Fatalf("bins = %v", counts)
	}
	if freqs[0] != 3 || freqs[1] != 2 || freqs[2] != 1 {
		t.Fatalf("freqs = %v", freqs)
	}
	_, cum := h.CDF()
	if math.Abs(cum[0]-0.5) > 1e-12 || math.Abs(cum[2]-1) > 1e-12 {
		t.Errorf("cdf = %v", cum)
	}
	// CDF must be nondecreasing and end at 1.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Error("CDF decreasing")
		}
	}
}

func BenchmarkSummarize2093(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]string, 2093)
	for i := range vals {
		vals[i] = string(rune('a' + rng.Intn(90)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(vals)
	}
}

// TestStableSummaryAgreement: Summarize must be bit-identical to
// SummaryFromCounts over the tallied group sizes — the property the
// streaming engine's snapshot rows rely on — and SummarizeStable and
// NormalizedEntropy must return the same floats.
func TestStableSummaryAgreement(t *testing.T) {
	cases := [][]string{
		{},
		{"a"},
		{"a", "a", "a"},
		{"a", "b", "c", "d"},
		{"a", "a", "b", "b", "b", "c", "d", "d", "e", "f", "f", "f", "f"},
	}
	for i, values := range cases {
		plain := Summarize(values)
		counts := map[string]int{}
		for _, v := range values {
			counts[v]++
		}
		cs := make([]int, 0, len(counts))
		for _, c := range counts {
			cs = append(cs, c)
		}
		if got := SummaryFromCounts(cs); got != plain {
			t.Errorf("case %d: SummaryFromCounts %+v != Summarize %+v", i, got, plain)
		}
		if got := SummarizeStable(values); got != plain {
			t.Errorf("case %d: SummarizeStable %+v != Summarize %+v", i, got, plain)
		}
		if got := NormalizedEntropy(values); got != plain.Normalized {
			t.Errorf("case %d: NormalizedEntropy %v != %v", i, got, plain.Normalized)
		}
	}
}

// TestSummarizeRepeatable: repeated calls on the same values must return
// the same floats. Summing p·log p in map order made the last bits of the
// entropy vary from call to call.
func TestSummarizeRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(2093))
	values := make([]string, 2093)
	for i := range values {
		values[i] = fmt.Sprintf("fp%d", int(400*rng.Float64()*rng.Float64()))
	}
	want := Summarize(values)
	for call := 0; call < 200; call++ {
		if got := Summarize(values); got != want {
			t.Fatalf("call %d: %+v, first call %+v", call, got, want)
		}
	}
}

// TestSummaryFromCountsOrderIndependent: any permutation of the group-size
// multiset must produce the identical float, not merely a close one.
func TestSummaryFromCountsOrderIndependent(t *testing.T) {
	base := []int{5, 1, 7, 2, 2, 9, 1, 3}
	want := SummaryFromCounts(base)
	perm := []int{9, 7, 5, 3, 2, 2, 1, 1}
	if got := SummaryFromCounts(perm); got != want {
		t.Errorf("permuted counts gave %+v, want %+v", got, want)
	}
}
