package diversity

import (
	"math/rand"
	"sort"
)

// BootstrapCI is a percentile bootstrap confidence interval for a diversity
// statistic.
type BootstrapCI struct {
	// Point is the statistic on the full sample.
	Point float64
	// Lo and Hi bound the central Confidence mass of the bootstrap
	// distribution.
	Lo, Hi float64
	// Confidence is the nominal coverage (e.g. 0.95).
	Confidence float64
	// Resamples is the number of bootstrap draws used.
	Resamples int
}

// BootstrapEntropyCI estimates a confidence interval for the normalized
// Shannon entropy of a fingerprint distribution by resampling users with
// replacement. The paper compares normalized entropies across studies of
// different sizes (§5, §6); the interval quantifies how much of such a
// difference sampling noise alone could explain.
func BootstrapEntropyCI[T comparable](values []T, resamples int, confidence float64, seed int64) BootstrapCI {
	if resamples <= 0 {
		resamples = 1000
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	ci := BootstrapCI{
		Point:      NormalizedEntropy(values),
		Confidence: confidence,
		Resamples:  resamples,
	}
	if len(values) < 2 {
		ci.Lo, ci.Hi = ci.Point, ci.Point
		return ci
	}
	rng := rand.New(rand.NewSource(seed))
	stats := make([]float64, resamples)
	sample := make([]T, len(values))
	for b := 0; b < resamples; b++ {
		for i := range sample {
			sample[i] = values[rng.Intn(len(values))]
		}
		stats[b] = NormalizedEntropy(sample)
	}
	sort.Float64s(stats)
	alpha := (1 - confidence) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	ci.Lo, ci.Hi = stats[loIdx], stats[hiIdx]
	return ci
}
