package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/study"
	"repro/internal/vectors"
)

// BenchmarkPairwiseAMI times one Figure 5 cell at paper scale: the 30
// single-iteration clusterings (s = 1) of the main study's 2,093 users on
// one vector, each labeling grouping the users that shared a fingerprint
// in that iteration.
func BenchmarkPairwiseAMI(b *testing.B) {
	ds, err := study.Run(study.Config{Seed: core.MainStudySeed, Users: 2093, Iterations: 30})
	if err != nil {
		b.Fatal(err)
	}
	obs := ds.Obs[vectors.FFT]
	labels := make([][]int32, ds.Iterations)
	ks := make([]int, ds.Iterations)
	for it := range labels {
		ids := map[string]int32{}
		labels[it] = make([]int32, len(obs))
		for u, row := range obs {
			id, ok := ids[row[it]]
			if !ok {
				id = int32(len(ids))
				ids[row[it]] = id
			}
			labels[it][u] = id
		}
		ks[it] = len(ids)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.PairwiseAMI(labels, ks); err != nil {
			b.Fatal(err)
		}
	}
}
