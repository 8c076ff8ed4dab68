package streaming

import (
	"slices"

	"repro/internal/vectors"
)

// Labels returns v's first-appearance-canonical cluster labels over s's
// dense user order, in the form Dataset.Labels returns.
func (s *State) Labels(v vectors.ID) []int {
	labels, _ := s.Vecs[slices.Index(vectors.All, v)].Graph.Labels()
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

// DistinctPerUser returns each user's distinct-fingerprint count for v in
// s's dense user order, in the form Dataset.DistinctPerUser returns.
func (s *State) DistinctPerUser(v vectors.ID) []int {
	counts := s.Vecs[slices.Index(vectors.All, v)].Distinct
	out := make([]int, len(counts))
	for i, c := range counts {
		out[i] = int(c)
	}
	return out
}

// AMI computes the pairwise-vector AMI matrix over s's dense user order,
// as Engine.RefreshAMI does over its live state.
func (s *State) AMI() *AMISnapshot {
	labels, ks := s.labels()
	return amiSnapshot(s.Records, labels, ks)
}
