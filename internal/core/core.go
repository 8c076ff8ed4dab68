// Package core is the library's public facade. It exposes the paper's
// primary contribution as adoptable components:
//
//   - Fingerprinter — runs the seven Web Audio fingerprinting vectors
//     against an audio stack and returns elementary fingerprints.
//   - Tracker — the fingerprinter-side identity system built on the §3.2
//     graph-based collation: feed it elementary fingerprints, ask it which
//     returning visitor they identify.
//   - WriteAllExperimentsContext — renders every table and figure of the
//     paper's evaluation from a dataset pair.
package core

import (
	"repro/internal/collate"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// Fingerprinter runs audio fingerprinting vectors against one audio stack.
type Fingerprinter struct {
	runner *vectors.Runner
}

// NewFingerprinter creates a fingerprinter for the given engine traits and
// device sample rate (0 means 44100 Hz).
func NewFingerprinter(traits webaudio.Traits, sampleRate float64) *Fingerprinter {
	return &Fingerprinter{runner: vectors.NewRunner(traits, sampleRate)}
}

// FingerprintAll runs all seven vectors at the given capture offset.
func (f *Fingerprinter) FingerprintAll(captureOffset int) ([]vectors.Fingerprint, error) {
	return f.runner.RunAll(captureOffset)
}

// Tracker is an online visitor-identification system: the bipartite
// collation graph of §3.2 behind a small API. It is what a fingerprinting
// party would deploy; its accuracy is what Tables 2 and 6 measure.
type Tracker struct {
	g *collate.Graph
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{g: collate.NewGraph()} }

// Observe records elementary fingerprints emitted by a known visitor,
// merging identities as collisions appear. It returns how many previously
// distinct identities this observation merged together; a first-time
// visitor joining an existing identity is not a merge.
func (t *Tracker) Observe(visitorID string, hashes ...string) int {
	merges := 0
	for _, h := range hashes {
		if t.g.AddObservation(visitorID, h) {
			merges++
		}
	}
	return merges
}

// Identify matches a set of elementary fingerprints from an unknown visitor
// against the known identities. ok is false when nothing (or something
// ambiguous) matches.
func (t *Tracker) Identify(hashes []string) (cluster int, ok bool) {
	c, res := t.g.Match(hashes)
	return c, res == collate.MatchUnique
}

// IdentityOf returns the identity cluster of a previously observed visitor.
func (t *Tracker) IdentityOf(visitorID string) (cluster int, ok bool) {
	return t.g.ClusterOf(visitorID)
}

// TrackerStats summarizes a tracker's state.
type TrackerStats struct {
	// Visitors is the number of distinct visitor IDs observed.
	Visitors int
	// Fingerprints is the number of distinct elementary fingerprints.
	Fingerprints int
	// Identities is the number of collated identities (clusters).
	Identities int
	// Unique is how many identities contain exactly one visitor.
	Unique int
}

// Stats reports the tracker's current state.
func (t *Tracker) Stats() TrackerStats {
	return TrackerStats{
		Visitors:     t.g.NumUsers(),
		Fingerprints: t.g.NumFingerprints(),
		Identities:   t.g.NumClusters(),
		Unique:       t.g.UniqueClusters(),
	}
}

// MainStudySeed and FollowUpSeed are the default seeds of the two
// simulated campaigns; all documented numbers use them.
const (
	MainStudySeed = 20220325
	FollowUpSeed  = 20210601
)

// RunStudy exposes arbitrary study configurations (smaller populations for
// examples and benchmarks).
func RunStudy(cfg study.Config) (*study.Dataset, error) { return study.Run(cfg) }
