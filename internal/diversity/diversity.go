// Package diversity implements the fingerprint diversity measures of the
// paper's §4: distinct and unique fingerprint counts, Shannon bit entropy
//
//	e = −Σ (uᵢ/U)·log₂(uᵢ/U)
//
// normalized entropy e/log₂(U) (comparable across study sizes), combination
// vectors (per-user tuples across fingerprinting techniques), and
// anonymity-set distributions.
package diversity

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary bundles the columns of the paper's Tables 2–4 for one vector.
type Summary struct {
	// Users is the population size U.
	Users int
	// Distinct is the number of distinct fingerprint values.
	Distinct int
	// Unique is the number of values held by exactly one user.
	Unique int
	// EntropyBits is the Shannon entropy in bits.
	EntropyBits float64
	// Normalized is EntropyBits / log₂(Users), in [0, 1].
	Normalized float64
}

// Summarize computes the Table 2-style summary of one fingerprint value per
// user: it tallies each value's group size and reduces the sizes with
// SummaryFromCounts, so the entropy does not depend on map order.
func Summarize[T comparable](values []T) Summary {
	counts := make(map[T]int, len(values))
	for _, v := range values {
		counts[v]++
	}
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	return SummaryFromCounts(cs)
}

// EntropyBits returns the Shannon entropy (bits) of the value distribution.
func EntropyBits[T comparable](values []T) float64 {
	return Summarize(values).EntropyBits
}

// NormalizedEntropy returns entropy divided by the maximum possible for the
// population size, log₂(U).
func NormalizedEntropy[T comparable](values []T) float64 {
	return Summarize(values).Normalized
}

// SummaryFromCounts computes a Summary from the multiset of group sizes
// (one entry per distinct value, holding how many users share it), with a
// deterministic floating-point summation order: sizes are sorted ascending
// before the entropy sum, so the same multiset always produces the same
// float regardless of the order counts were collected in. It is the one
// entropy kernel: Summarize and the streaming engine's snapshot rows both
// reduce to it, which is what makes batch and streaming entropies
// bit-identical rather than merely close.
func SummaryFromCounts(counts []int) Summary {
	cs := make([]int, len(counts))
	copy(cs, counts)
	sort.Ints(cs)
	s := Summary{Distinct: len(cs)}
	for _, c := range cs {
		s.Users += c
	}
	n := float64(s.Users)
	for _, c := range cs {
		if c == 1 {
			s.Unique++
		}
		p := float64(c) / n
		s.EntropyBits -= p * math.Log2(p)
	}
	if s.EntropyBits < 0 {
		s.EntropyBits = 0
	}
	if s.Users > 1 {
		s.Normalized = s.EntropyBits / math.Log2(n)
	}
	return s
}

// SummarizeStable is Summarize under its former name, kept for
// cmd/fpbench, which is a module of its own.
func SummarizeStable[T comparable](values []T) Summary { return Summarize(values) }

// Combine builds the combination vector of several fingerprinting
// techniques: element i of the result encodes the tuple of all vectors'
// values for user i (the paper's (fᵢ, gᵢ, hᵢ, …) construction). All input
// slices must have equal length. By construction the combination's
// diversity is at least that of its most diverse component.
func Combine[T comparable](vectors ...[]T) ([]string, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("diversity: no vectors to combine")
	}
	n := len(vectors[0])
	for k, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("diversity: vector %d has %d users, want %d", k, len(v), n)
		}
	}
	out := make([]string, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		for k := range vectors {
			if k > 0 {
				b.WriteByte('\x1f') // unit separator avoids tuple ambiguity
			}
			fmt.Fprintf(&b, "%v", vectors[k][i])
		}
		out[i] = b.String()
	}
	return out, nil
}

// AnonymitySets returns the distribution of anonymity-set sizes: for each
// fingerprint value held by k users, one set of size k. Keys are set sizes,
// values how many sets have that size.
func AnonymitySets[T comparable](values []T) map[int]int {
	counts := make(map[T]int, len(values))
	for _, v := range values {
		counts[v]++
	}
	out := make(map[int]int)
	for _, c := range counts {
		out[c]++
	}
	return out
}

// DistinctPerGroup returns, for each group key, how many distinct values
// appear within it — the computation behind the paper's Table 5 (distinct
// DC / Math-JS fingerprints per platform) and the §4 UA-span analysis.
func DistinctPerGroup[G comparable, T comparable](groups []G, values []T) (map[G]int, error) {
	if len(groups) != len(values) {
		return nil, fmt.Errorf("diversity: %d groups vs %d values", len(groups), len(values))
	}
	seen := make(map[G]map[T]struct{})
	for i, g := range groups {
		m, ok := seen[g]
		if !ok {
			m = make(map[T]struct{})
			seen[g] = m
		}
		m[values[i]] = struct{}{}
	}
	out := make(map[G]int, len(seen))
	for g, m := range seen {
		out[g] = len(m)
	}
	return out, nil
}

// GroupSizes returns the number of items per group key.
func GroupSizes[G comparable](groups []G) map[G]int {
	out := make(map[G]int)
	for _, g := range groups {
		out[g]++
	}
	return out
}

// Histogram returns the sorted (value count, frequency) pairs of how many
// users hold 1, 2, 3, … distinct fingerprints — the data behind Fig. 3.
type Histogram struct {
	// Bins maps a count to how many users have that count.
	Bins map[int]int
}

// NewHistogram tallies per-user counts.
func NewHistogram(counts []int) Histogram {
	h := Histogram{Bins: make(map[int]int)}
	for _, c := range counts {
		h.Bins[c]++
	}
	return h
}

// SortedBins returns the bins in ascending count order.
func (h Histogram) SortedBins() (counts []int, freqs []int) {
	for c := range h.Bins {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	freqs = make([]int, len(counts))
	for i, c := range counts {
		freqs[i] = h.Bins[c]
	}
	return counts, freqs
}

// CDF returns the cumulative fraction of users at or below each bin of
// SortedBins.
func (h Histogram) CDF() (counts []int, cum []float64) {
	counts, freqs := h.SortedBins()
	total := 0
	for _, f := range freqs {
		total += f
	}
	cum = make([]float64, len(counts))
	run := 0
	for i, f := range freqs {
		run += f
		cum[i] = float64(run) / float64(total)
	}
	return counts, cum
}
