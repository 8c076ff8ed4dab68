package cluster

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// canonical relabels raw labels to [0, k) by first appearance (the form
// collate.IntGraph.Labels emits) and returns k.
func canonical(raw []int) ([]int32, int) {
	seen := map[int]int32{}
	out := make([]int32, len(raw))
	for i, l := range raw {
		id, ok := seen[l]
		if !ok {
			id = int32(len(seen))
			seen[l] = id
		}
		out[i] = id
	}
	return out, len(seen)
}

// denseLabels draws n random labels over ≤ maxK groups, canonicalized by
// first appearance.
func denseLabels(rng *rand.Rand, n, maxK int) ([]int32, int) {
	raw := make([]int, n)
	for i := range raw {
		raw[i] = rng.Intn(maxK)
	}
	return canonical(raw)
}

func toInts(x []int32) []int {
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = int(v)
	}
	return out
}

// randomShape draws the labelings of one differential trial: n in
// [1, 500] items and two to four labelings. The first trials are the edge
// cases (one item, one cluster, all singletons, and both against each
// other); the rest draw k in [1, n] clusters per labeling with uniform or
// skewed sizes, so sizes repeat and multiplicities exceed one.
func randomShape(rng *rand.Rand, trial int) ([][]int32, []int) {
	n := 1 + rng.Intn(500)
	one := func() []int { return make([]int, n) }
	singletons := func() []int {
		raw := make([]int, n)
		for i := range raw {
			raw[i] = i
		}
		rng.Shuffle(n, func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
		return raw
	}
	random := func() []int {
		k := 1 + rng.Intn(n)
		skew := []float64{1, 2, 4}[rng.Intn(3)]
		raw := make([]int, n)
		for i := range raw {
			raw[i] = int(float64(k) * math.Pow(rng.Float64(), skew))
		}
		return raw
	}
	var raws [][]int
	switch trial {
	case 0:
		n = 1
		raws = [][]int{one(), one()}
	case 1:
		raws = [][]int{one(), one(), random()}
	case 2:
		raws = [][]int{singletons(), singletons(), random()}
	case 3:
		raws = [][]int{one(), singletons(), random()}
	default:
		for k := 2 + rng.Intn(3); k > 0; k-- {
			raws = append(raws, random())
		}
	}
	labels := make([][]int32, len(raws))
	ks := make([]int, len(raws))
	for i, raw := range raws {
		labels[i], ks[i] = canonical(raw)
	}
	return labels, ks
}

// exactSum adds float64 terms without rounding: 2,200 bits cover every
// float64 exponent.
type exactSum struct{ acc, t big.Float }

func newExactSum() *exactSum {
	s := &exactSum{}
	s.acc.SetPrec(2200)
	return s
}

func (s *exactSum) add(x float64) { s.acc.Add(&s.acc, s.t.SetFloat64(x)) }

// relErr returns |got − exact| / |exact|, or |got| when exact is zero.
func (s *exactSum) relErr(got float64) float64 {
	var d big.Float
	d.SetPrec(2200).Sub(new(big.Float).SetFloat64(got), &s.acc)
	if s.acc.Sign() != 0 {
		d.Quo(&d, &s.acc)
	}
	r, _ := d.Float64()
	return math.Abs(r)
}

// TestPairwiseAMIMatchesOracle pins PairwiseAMI's numeric contract against
// the dense contingency oracle over 150 random shapes: MI and both
// entropies bit-identical, E[MI] within 1e-14 relative of the exact sum
// of the oracle's own float64 terms, and AMI within 1e-11 absolute.
// The log reports the oracle cell loop's own E[MI] error for comparison.
func TestPairwiseAMIMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var worstGrouped, worstLoop, worstAMI, worstExactAMI float64
	for trial := 0; trial < 150; trial++ {
		labels, ks := randomShape(rng, trial)
		p, err := newPairwise(labels, ks)
		if err != nil {
			t.Fatal(err)
		}
		m, err := PairwiseAMI(labels, ks)
		if err != nil {
			t.Fatal(err)
		}
		n := len(labels[0])
		for i := range labels {
			if m[i][i] != 1 {
				t.Fatalf("trial %d: diagonal %d is %v", trial, i, m[i][i])
			}
			for j := i + 1; j < len(labels); j++ {
				c, err := NewContingency(toInts(labels[i]), toInts(labels[j]))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := p.mi(i, j), c.MI(); got != want {
					t.Fatalf("trial %d (n=%d) pair %d,%d: MI %v, oracle %v", trial, n, i, j, got, want)
				}
				if got, want := p.ls[i].entropy, c.EntropyU(); got != want {
					t.Fatalf("trial %d pair %d,%d: H(U) %v, oracle %v", trial, i, j, got, want)
				}
				if got, want := p.ls[j].entropy, c.EntropyV(); got != want {
					t.Fatalf("trial %d pair %d,%d: H(V) %v, oracle %v", trial, i, j, got, want)
				}
				exact := newExactSum()
				c.expectedMITerms(exact.add)
				grouped := exact.relErr(p.expectedMI(i, j))
				if grouped > 1e-14 {
					t.Fatalf("trial %d (n=%d, k=%d,%d) pair %d,%d: E[MI] %v off the exact sum by %.3g relative",
						trial, n, ks[i], ks[j], i, j, p.expectedMI(i, j), grouped)
				}
				worstGrouped = math.Max(worstGrouped, grouped)
				worstLoop = math.Max(worstLoop, exact.relErr(c.ExpectedMI()))
				if m[i][j] != m[j][i] {
					t.Fatalf("trial %d: matrix not symmetric at %d,%d", trial, i, j)
				}
				d := math.Abs(m[i][j] - c.AMI())
				if d > 1e-11 {
					t.Fatalf("trial %d (n=%d) pair %d,%d: AMI %v, oracle %v", trial, n, i, j, m[i][j], c.AMI())
				}
				worstAMI = math.Max(worstAMI, d)
				// Most of that deviation is the oracle's: against the AMI at
				// the exact E[MI], PairwiseAMI is closer still.
				ru, rv := len(c.rows), len(c.cols)
				if trivial := (ru == 1 && rv == 1) || (ru == n && rv == n); !trivial {
					e, _ := exact.acc.Float64()
					ami := adjusted(c.MI(), e, c.EntropyU(), c.EntropyV())
					d := math.Abs(m[i][j] - ami)
					if d > 1e-13 {
						t.Fatalf("trial %d (n=%d) pair %d,%d: AMI %v, %v at the exact E[MI]", trial, n, i, j, m[i][j], ami)
					}
					worstExactAMI = math.Max(worstExactAMI, d)
				}
			}
		}
	}
	t.Logf("worst E[MI] relative error: grouped %.3g, oracle cell loop %.3g; worst AMI deviation from the oracle %.3g, from the AMI at the exact E[MI] %.3g",
		worstGrouped, worstLoop, worstAMI, worstExactAMI)
}

// TestPairwiseAMIRelabelInvariance: labels carry no meaning beyond
// equality. Permuting a labeling's cluster ids leaves E[MI] bit-identical
// (it depends only on the size histograms) and moves AMI only by the
// summation order of MI and the entropies; the oracle over any relabeling
// agrees as well.
func TestPairwiseAMIRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, kx := denseLabels(rng, 300, 40)
	y, ky := denseLabels(rng, 300, 25)
	permuted := func(ls []int32, k int) []int32 {
		perm := rng.Perm(k)
		out := make([]int32, len(ls))
		for i, l := range ls {
			out[i] = int32(perm[l])
		}
		return out
	}
	p, err := newPairwise([][]int32{x, y}, []int{kx, ky})
	if err != nil {
		t.Fatal(err)
	}
	q, err := newPairwise([][]int32{permuted(x, kx), permuted(y, ky)}, []int{kx, ky})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := p.expectedMI(0, 1), q.expectedMI(0, 1); a != b {
		t.Errorf("E[MI] %v after relabeling, %v before", b, a)
	}
	if a, b := p.ami(0, 1), q.ami(0, 1); math.Abs(a-b) > 1e-12 {
		t.Errorf("AMI %v after relabeling, %v before", b, a)
	}
	relabel := func(ls []int32, stride int) []int {
		out := make([]int, len(ls))
		for i, l := range ls {
			out[i] = int(l)*stride + 17
		}
		return out
	}
	want, err := AMI(relabel(x, 1000), relabel(y, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ami(0, 1); math.Abs(got-want) > 1e-11 {
		t.Errorf("PairwiseAMI %v, oracle over a relabeling %v", got, want)
	}
}

func TestPairwiseAMIErrors(t *testing.T) {
	bad := []struct {
		name   string
		labels [][]int32
		ks     []int
	}{
		{"length mismatch", [][]int32{{0}, {0, 1}}, []int{1, 2}},
		{"empty clusterings", [][]int32{nil, nil}, []int{1, 1}},
		{"non-positive k", [][]int32{{0}, {0}}, []int{0, 1}},
		{"label past k", [][]int32{{0, 1}, {0, 0}}, []int{1, 1}},
		{"negative label", [][]int32{{0, -1}, {0, 0}}, []int{2, 1}},
		{"count mismatch", [][]int32{{0}, {0}}, []int{1}},
	}
	for _, c := range bad {
		if _, err := PairwiseAMI(c.labels, c.ks); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if m, err := PairwiseAMI(nil, nil); err != nil || len(m) != 0 {
		t.Errorf("no labelings: %v, %v", m, err)
	}
	if m, err := PairwiseAMI([][]int32{{0, 1, 1}}, []int{2}); err != nil || len(m) != 1 || m[0][0] != 1 {
		t.Errorf("one labeling: %v, %v", m, err)
	}
}

// TestLogFactorialsConcurrent: the shared table must grow safely under
// concurrent readers and always match a fresh incremental computation.
func TestLogFactorialsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n < 400; n += 7 + w {
				lg := logFactorials(n)
				if len(lg) != n+1 {
					t.Errorf("logFactorials(%d) has %d entries", n, len(lg))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lg := logFactorials(500)
	var want float64
	for k := 2; k <= 500; k++ {
		want = lg[k-1] + math.Log(float64(k))
		if lg[k] != want {
			t.Fatalf("lgam[%d] = %v, want %v", k, lg[k], want)
		}
	}
}
