package study

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden suite pins the exact numbers a seeded small-population study
// produces — per-vector entropy (Table 2), the Figure 5/9 pairwise AMI
// matrix, and the §5 subset-ranking order. Any change to the simulation,
// collation, or analysis layers that shifts a single digit fails here
// before it can silently skew the paper's reproduced results.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/study -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func goldenDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Run(Config{Seed: 20210115, Users: 64, Iterations: 5, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkGolden compares got against testdata/golden/<name>.golden, rewriting
// the file instead when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s updated", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (re-run with -update if intentional)\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

func TestGoldenTable2Entropy(t *testing.T) {
	ds := goldenDataset(t)
	var b strings.Builder
	for _, row := range ds.Table2() {
		// 9 decimals, as the golden file has always been written; the
		// entropy itself is deterministic to the last bit.
		fmt.Fprintf(&b, "%-12s users=%d distinct=%d unique=%d entropy=%.9f normalized=%.9f\n",
			row.Name, row.Users, row.Distinct, row.Unique, row.EntropyBits, row.Normalized)
	}
	checkGolden(t, "table2_entropy", b.String())
}

func TestGoldenFigure5AMI(t *testing.T) {
	ds := goldenDataset(t)
	m, err := ds.PairwiseVectorAMI()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range m {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.9f", v)
		}
		b.WriteByte('\n')
	}
	checkGolden(t, "figure5_ami", b.String())
}

func TestGoldenSubsetRanking(t *testing.T) {
	ds := goldenDataset(t)
	res := ds.SubsetRanking(4)
	var b strings.Builder
	for i, ranking := range res.Rankings {
		fmt.Fprintf(&b, "subset %d: %s\n", i, strings.Join(ranking, " > "))
	}
	fmt.Fprintf(&b, "consistent: %v\n", res.Consistent)
	checkGolden(t, "subset_ranking", b.String())
}

// TestGoldenDeterministicAcrossParallelism guards the property the golden
// files rely on: the numbers cannot depend on worker scheduling.
func TestGoldenDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{Seed: 20210115, Users: 64, Iterations: 5}
	cfg.Parallelism = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sRows, pRows := serial.Table2(), parallel.Table2()
	for i := range sRows {
		// Entropies sum over sorted group sizes, so rows match exactly.
		if s, p := sRows[i], pRows[i]; s != p {
			t.Errorf("Table2 row %d differs across parallelism: %+v vs %+v", i, s, p)
		}
	}
}
