// Package defense implements and evaluates the audio-fingerprinting
// mitigation the paper's §4 discusses: Brave-style fingerprint
// randomization ("farbling", Brave issue #9187 / FPRandom). The defense
// perturbs every script-readable audio buffer with noise keyed by a
// per-session seed — sites keep working, repeated reads within a session
// agree, but fingerprints stop matching across sessions.
//
// Evaluate quantifies the protection exactly the way the paper quantifies
// the attack: by running fingerprinting vectors against defended stacks and
// measuring cross-session match rates and diversity.
package defense

import (
	"fmt"

	"repro/internal/collate"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// Mode selects the randomization policy.
type Mode int

const (
	// Off applies no defense.
	Off Mode = iota
	// SessionKeyed perturbs readable buffers with noise derived from a
	// per-session seed: stable within a session, fresh across sessions
	// (Brave's "balanced" farbling).
	SessionKeyed
)

// Epsilon is the relative noise amplitude. Brave-scale perturbation: far
// below audibility, far above float32 hash sensitivity.
const Epsilon = 1e-4

// Protect returns traits with the defense applied for the given session.
// sessionSeed must change between sessions (a browser derives it from a
// session nonce and the site origin).
func Protect(tr webaudio.Traits, mode Mode, sessionSeed uint64) webaudio.Traits {
	if mode == Off {
		tr.Farble = nil
		return tr
	}
	tr.Farble = &webaudio.FarbleConfig{Seed: sessionSeed, Epsilon: Epsilon}
	return tr
}

// Evaluation reports how a fingerprinting campaign fares against the
// defense.
type Evaluation struct {
	// Users is the evaluated population size.
	Users int
	// WithinSessionStable counts users whose two same-session fingerprints
	// matched (the compatibility requirement: the defense must not break
	// same-session consistency).
	WithinSessionStable int
	// CrossSessionMatched counts users recognized across two sessions via
	// the collation graph (the tracking the defense is meant to stop).
	CrossSessionMatched int
	// DistinctFirstSession is the number of distinct fingerprints in the
	// first session (≈ Users under the defense: everyone unique, nobody
	// linkable).
	DistinctFirstSession int
}

// String renders the evaluation summary.
func (e Evaluation) String() string {
	return fmt.Sprintf(
		"users=%d within-session-stable=%d cross-session-matched=%d distinct-first-session=%d",
		e.Users, e.WithinSessionStable, e.CrossSessionMatched, e.DistinctFirstSession)
}

// Evaluate runs vector v twice in each of two sessions for n simulated
// users under the given mode and measures within-session stability and
// cross-session linkability.
func Evaluate(mode Mode, v vectors.ID, n int, seed int64) (Evaluation, error) {
	devices := population.Sample(population.Config{Seed: seed, N: n})
	eval := Evaluation{Users: n}
	graph := collate.NewGraph()
	firstSession := make(map[string]string, n)

	for i, d := range devices {
		// Two sessions with distinct session seeds.
		s1 := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*2 + 1
		s2 := s1 + 1
		tr1 := Protect(d.AudioTraits(), mode, s1)
		tr2 := Protect(d.AudioTraits(), mode, s2)

		r1 := vectors.NewRunner(tr1, d.SampleRate)
		fpA, err := r1.Run(v, 0)
		if err != nil {
			return eval, err
		}
		fpB, err := vectors.NewRunner(tr1, d.SampleRate).Run(v, 0)
		if err != nil {
			return eval, err
		}
		if fpA.Hash == fpB.Hash {
			eval.WithinSessionStable++
		}
		firstSession[d.ID] = fpA.Hash
		graph.AddObservation(d.ID, fpA.Hash)

		fpC, err := vectors.NewRunner(tr2, d.SampleRate).Run(v, 0)
		if err != nil {
			return eval, err
		}
		// Cross-session recognition: does session 2's fingerprint point
		// back to this user's session-1 cluster?
		want, _ := graph.ClusterOf(d.ID)
		if got, res := graph.Match([]string{fpC.Hash}); res == collate.MatchUnique && got == want {
			eval.CrossSessionMatched++
		}
	}

	distinct := make(map[string]struct{}, n)
	for _, h := range firstSession {
		distinct[h] = struct{}{}
	}
	eval.DistinctFirstSession = len(distinct)
	return eval, nil
}
