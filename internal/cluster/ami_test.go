package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pairAMI scores x against y through PairwiseAMI, after densifying both
// label vectors by first appearance.
func pairAMI(x, y []int) (float64, error) {
	dx, kx := canonical(x)
	dy, ky := canonical(y)
	m, err := PairwiseAMI([][]int32{dx, dy}, []int{kx, ky})
	if err != nil {
		return 0, err
	}
	return m[0][1], nil
}

func TestContingencyValidation(t *testing.T) {
	if _, err := NewContingency([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewContingency(nil, nil); err == nil {
		t.Error("empty clusterings accepted")
	}
}

func TestContingencyCounts(t *testing.T) {
	c, err := NewContingency([]int{0, 0, 1, 1}, []int{5, 5, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.n != 4 {
		t.Errorf("n = %d", c.n)
	}
	if len(c.rows) != 2 || len(c.cols) != 2 {
		t.Fatalf("shape %dx%d, want 2x2", len(c.rows), len(c.cols))
	}
	if c.rows[0] != 2 || c.rows[1] != 2 || c.cols[0] != 3 || c.cols[1] != 1 {
		t.Errorf("marginals rows=%v cols=%v", c.rows, c.cols)
	}
}

func TestAMIIdenticalIsOne(t *testing.T) {
	cases := [][]int{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 2, 3, 4, 5},    // all singletons
		{7, 7, 7, 7},          // single cluster
		{1, 1, 2, 2, 2, 3, 4}, // imbalanced
	}
	for _, labels := range cases {
		for name, ami := range map[string]func(x, y []int) (float64, error){"oracle": AMI, "PairwiseAMI": pairAMI} {
			got, err := ami(labels, labels)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-1) > 1e-9 {
				t.Errorf("%s AMI(x,x) = %g for %v, want 1", name, got, labels)
			}
		}
	}
}

func TestAMILabelPermutationInvariance(t *testing.T) {
	x := []int{0, 0, 1, 1, 2, 2, 2, 3}
	y := []int{1, 1, 0, 0, 5, 5, 5, 9} // same partition, renamed labels
	got, err := pairAMI(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("AMI under label renaming = %g, want 1", got)
	}
}

// TestAMIRandomNearZero: independent random clusterings must score ≈ 0 —
// the "adjusted for chance" property that distinguishes AMI from raw MI.
func TestAMIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sum float64
	const trials = 20
	for i := 0; i < trials; i++ {
		n := 300
		x := make([]int, n)
		y := make([]int, n)
		for j := range x {
			x[j] = rng.Intn(8)
			y[j] = rng.Intn(8)
		}
		v, err := pairAMI(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean) > 0.03 {
		t.Errorf("mean AMI of independent clusterings = %g, want ≈ 0", mean)
	}
}

// TestExpectedMIMatchesPermutationModel validates PairwiseAMI's analytic
// E[MI] against a Monte Carlo estimate over random relabelings.
func TestExpectedMIMatchesPermutationModel(t *testing.T) {
	x := []int{0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2}
	y := []int{0, 0, 1, 1, 1, 2, 2, 2, 2, 0, 0, 1}
	dx, kx := canonical(x)
	dy, ky := canonical(y)
	p, err := newPairwise([][]int32{dx, dy}, []int{kx, ky})
	if err != nil {
		t.Fatal(err)
	}
	analytic := p.expectedMI(0, 1)

	rng := rand.New(rand.NewSource(3))
	const samples = 30000
	perm := append([]int(nil), y...)
	var sum float64
	for s := 0; s < samples; s++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		cc, err := NewContingency(x, perm)
		if err != nil {
			t.Fatal(err)
		}
		sum += cc.MI()
	}
	mc := sum / samples
	if math.Abs(analytic-mc) > 0.01 {
		t.Errorf("analytic EMI %g vs Monte Carlo %g", analytic, mc)
	}
}

func TestAMIBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		x := make([]int, n)
		y := make([]int, n)
		for j := range x {
			x[j] = rng.Intn(1 + rng.Intn(6))
			y[j] = rng.Intn(1 + rng.Intn(6))
		}
		v, err := pairAMI(x, y)
		if err != nil {
			return false
		}
		return v <= 1+1e-9 && v > -1.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAMIRefinementScoresHigh: splitting one cluster of a partition should
// still score high agreement, much higher than an unrelated partition.
func TestAMIRefinementScoresHigh(t *testing.T) {
	base := make([]int, 120)
	refined := make([]int, 120)
	shuffled := make([]int, 120)
	rng := rand.New(rand.NewSource(5))
	for i := range base {
		base[i] = i / 30          // 4 clusters of 30
		refined[i] = i / 15       // each split in two
		shuffled[i] = rng.Intn(8) // unrelated
	}
	hi, err := pairAMI(base, refined)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := pairAMI(base, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if hi < 0.5 {
		t.Errorf("refinement AMI = %g, want > 0.5", hi)
	}
	if hi <= lo+0.3 {
		t.Errorf("refinement AMI %g not clearly above random %g", hi, lo)
	}
}

func TestSymmetryProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		x := make([]int, n)
		y := make([]int, n)
		for j := range x {
			x[j] = rng.Intn(4)
			y[j] = rng.Intn(5)
		}
		a, err1 := pairAMI(x, y)
		b, err2 := pairAMI(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
