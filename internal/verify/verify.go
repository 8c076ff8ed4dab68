// Package verify turns the repo's fingerprint-matching machinery into an
// authentication decision surface: it scores a submitted set of elementary
// fingerprints against a claimed user's stored history and answers
// accept/reject with a calibrated threshold — the "Guess Who?"-style
// question of whether a returning fingerprint can vouch for an account.
//
// The decision deliberately depends only on the claimed user's own
// history: per vector, the sorted set of distinct hashes the user ever
// submitted, against which a submission is matched by membership — the
// "Guess Who?" framing of verification as matching a submission against
// stored attributes. That makes a decision invariant under sharding: the
// claimed user pins the owning shard, the owning shard holds the user's
// entire history (shard.Of is user-granular), so a sharded deployment
// answers bit-identically to a single engine. False accepts are then
// exactly fingerprint collisions between users — the paper's anonymity
// sets — which is what the FAR/FRR sweep in sweep.go measures.
package verify

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vectors"
)

// DefaultThreshold is the stock accept threshold when no calibration is
// supplied: the equal-error-rate threshold of the offline sweep over the
// evolved 2093-user main-study population (EER ≈ 0.136 — see sweep.go and
// TestGoldenEER, which keeps this constant honest).
const DefaultThreshold = 0.79

// ErrUnknownUser reports a verification request for a user with no stored
// history. Servers map it to the stable `unknown_user` error code.
var ErrUnknownUser = errors.New("verify: unknown user")

// Config parameterizes an Engine.
type Config struct {
	// Threshold is the accept threshold over the decision score in [0,1].
	// 0 takes the calibration's EER threshold when Calibration is set,
	// DefaultThreshold otherwise.
	Threshold float64
	// Calibration, when set, is served on the verify analytics route and
	// supplies the threshold default.
	Calibration *Calibration
	// Registry receives per-decision counters and the enrolled-user gauge.
	// Nil disables metrics — offline sweeps build throwaway engines and
	// must not pollute the process registry.
	Registry *obs.Registry
	// MetricLabels is merged into every metric label set (the sharded
	// wrapper tags each engine with its shard index).
	MetricLabels obs.Labels
}

// Sample is one submitted elementary fingerprint.
type Sample struct {
	Vector vectors.ID
	Hash   string
}

// VectorEvidence is the per-vector breakdown of a decision.
type VectorEvidence struct {
	// Vector names the fingerprinting vector.
	Vector string `json:"vector"`
	// Samples is how many hashes were submitted for the vector.
	Samples int `json:"samples"`
	// Recognized is how many of them appear in the claimed user's history.
	Recognized int `json:"recognized"`
	// Outcome is "unique" when at least one hash is recognized, "none"
	// when none is, and "no_history" when the user has never been observed
	// on this vector (excluded from the score).
	Outcome string `json:"outcome"`
	// Score is Recognized/Samples.
	Score float64 `json:"score"`
}

// Decision is the verification verdict.
type Decision struct {
	UserID string `json:"user_id"`
	Accept bool   `json:"accept"`
	// Score is the confidence in [0,1]: the mean recognized fraction over
	// vectors the user has history for.
	Score float64 `json:"score"`
	// Threshold is the calibrated accept threshold the score was compared
	// against.
	Threshold float64 `json:"threshold"`
	// Vectors is the per-vector evidence, sorted by vector name.
	Vectors []VectorEvidence `json:"vectors"`
}

// StatsSnapshot is the verify analytics payload.
type StatsSnapshot struct {
	// Users is the number of enrolled users (any stored history).
	Users int `json:"users"`
	// Records is the number of enrolled fingerprint observations.
	Records int64 `json:"records"`
	// Accepted / Rejected / UnknownUsers count decisions since start.
	Accepted     int64 `json:"accepted"`
	Rejected     int64 `json:"rejected"`
	UnknownUsers int64 `json:"unknown_users"`
	// Threshold is the active accept threshold.
	Threshold float64 `json:"threshold"`
	// Calibration is the offline FAR/FRR sweep backing the threshold, when
	// one was loaded.
	Calibration *Calibration `json:"calibration,omitempty"`
}

// Engine holds per-user verification history and answers decisions. Safe
// for concurrent use.
type Engine struct {
	cfg Config

	mu      sync.RWMutex
	users   map[string][]vectorHistory
	records int64

	accepted, rejected, unknown int64

	metAccept, metReject, metUnknown *obs.Counter
}

// vectorHistory is one user's stored history on one vector: the distinct
// hashes ever enrolled, sorted so recognition is a binary search. The
// exact strings are kept, not a digest: hashes come from clients, and a
// truncated digest would let two different strings compare equal.
type vectorHistory struct {
	vector vectors.ID
	hashes []string
}

// historyIndex returns the index of v's history in hist, -1 when the user
// has none on v.
func historyIndex(hist []vectorHistory, v vectors.ID) int {
	for i := range hist {
		if hist[i].vector == v {
			return i
		}
	}
	return -1
}

// recognized reports whether hash is in the sorted set.
func recognized(set []string, hash string) bool {
	i := sort.SearchStrings(set, hash)
	return i < len(set) && set[i] == hash
}

// New builds an Engine.
func New(cfg Config) *Engine {
	if cfg.Threshold == 0 {
		if cfg.Calibration != nil && cfg.Calibration.EERThreshold > 0 {
			cfg.Threshold = cfg.Calibration.EERThreshold
		} else {
			cfg.Threshold = DefaultThreshold
		}
	}
	e := &Engine{cfg: cfg, users: make(map[string][]vectorHistory)}
	if cfg.Registry != nil {
		lbl := func(decision string) obs.Labels {
			l := obs.Labels{"decision": decision}
			for k, v := range cfg.MetricLabels {
				l[k] = v
			}
			return l
		}
		const name = "verify_decisions_total"
		const help = "Verification decisions by outcome."
		e.metAccept = cfg.Registry.Counter(name, help, lbl("accept"))
		e.metReject = cfg.Registry.Counter(name, help, lbl("reject"))
		e.metUnknown = cfg.Registry.Counter(name, help, lbl("unknown_user"))
	}
	return e
}

// Enroll folds stored records into the per-user history. Records whose
// vector is not an audio vector (auxiliary surfaces such as Canvas ride
// along in submissions) are ignored. Safe to call concurrently with
// Verify; a decision sees a consistent snapshot.
//
// Enrollment is read-your-writes: once Enroll returns, every Score or
// Verify that starts afterwards recognizes the enrolled hashes. The
// collection server enrolls a submission before it answers 202, so an
// acknowledged submission can be verified at once.
func (e *Engine) Enroll(recs []storage.Record) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rec := range recs {
		v, err := vectors.ParseID(rec.Vector)
		if err != nil || rec.Hash == "" || rec.UserID == "" {
			continue
		}
		hist := e.users[rec.UserID]
		i := historyIndex(hist, v)
		if i < 0 {
			i = len(hist)
			hist = append(hist, vectorHistory{vector: v})
			e.users[rec.UserID] = hist
		}
		set := hist[i].hashes
		if j := sort.SearchStrings(set, rec.Hash); j == len(set) || set[j] != rec.Hash {
			set = append(set, "")
			copy(set[j+1:], set[j:])
			set[j] = rec.Hash
			hist[i].hashes = set
		}
		e.records++
	}
}

// EnrollHashes is Enroll for pre-parsed observations (offline sweeps).
func (e *Engine) EnrollHashes(userID string, v vectors.ID, hashes ...string) {
	recs := make([]storage.Record, len(hashes))
	for i, h := range hashes {
		recs[i] = storage.Record{UserID: userID, Vector: v.String(), Hash: h}
	}
	e.Enroll(recs)
}

// Score computes the decision score and evidence for a claimed user
// without counting a decision. known is false when the user has no stored
// history at all.
func (e *Engine) Score(userID string, samples []Sample) (score float64, evidence []VectorEvidence, known bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	hist, known := e.users[userID]
	if !known {
		return 0, nil, false
	}

	// Group the submitted hashes per vector: sort one copy of the samples
	// stably by vector name, the evidence order, and walk its runs.
	sorted := slices.Clone(samples)
	slices.SortStableFunc(sorted, func(a, b Sample) int {
		return strings.Compare(a.Vector.String(), b.Vector.String())
	})
	groups := 0
	for i := range sorted {
		if i == 0 || sorted[i].Vector != sorted[i-1].Vector {
			groups++
		}
	}
	if groups > 0 {
		evidence = make([]VectorEvidence, 0, groups)
	}

	var sum float64
	var scored int
	for lo := 0; lo < len(sorted); {
		v := sorted[lo].Vector
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Vector == v {
			hi++
		}
		group := sorted[lo:hi]
		lo = hi
		ve := VectorEvidence{Vector: v.String(), Samples: len(group)}
		i := historyIndex(hist, v)
		if i < 0 {
			// The user was never observed on this vector: the submission
			// is neither confirming nor refuting, so it stays out of the
			// score — a verifier cannot hold absent enrollment against a
			// genuine user.
			ve.Outcome = "no_history"
			evidence = append(evidence, ve)
			continue
		}
		for _, s := range group {
			if recognized(hist[i].hashes, s.Hash) {
				ve.Recognized++
			}
		}
		ve.Outcome = "none"
		if ve.Recognized > 0 {
			ve.Outcome = "unique"
		}
		ve.Score = float64(ve.Recognized) / float64(ve.Samples)
		sum += ve.Score
		scored++
		evidence = append(evidence, ve)
	}
	if scored > 0 {
		score = sum / float64(scored)
	}
	return score, evidence, true
}

// Verify answers the decision for a claimed user. ErrUnknownUser reports a
// claim for a user with no stored history; an empty sample set is the
// caller's validation problem and scores 0 against any enrolled user.
func (e *Engine) Verify(userID string, samples []Sample) (Decision, error) {
	score, evidence, known := e.Score(userID, samples)
	if !known {
		e.count(&e.unknown, e.metUnknown)
		return Decision{}, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	d := Decision{
		UserID:    userID,
		Score:     score,
		Threshold: e.cfg.Threshold,
		Accept:    score >= e.cfg.Threshold,
		Vectors:   evidence,
	}
	if d.Accept {
		e.count(&e.accepted, e.metAccept)
	} else {
		e.count(&e.rejected, e.metReject)
	}
	return d, nil
}

func (e *Engine) count(field *int64, c *obs.Counter) {
	e.mu.Lock()
	*field++
	e.mu.Unlock()
	if c != nil {
		c.Inc()
	}
}

// Stats snapshots the engine's counters for the analytics route.
func (e *Engine) Stats() StatsSnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return StatsSnapshot{
		Users:        len(e.users),
		Records:      e.records,
		Accepted:     e.accepted,
		Rejected:     e.rejected,
		UnknownUsers: e.unknown,
		Threshold:    e.cfg.Threshold,
		Calibration:  e.cfg.Calibration,
	}
}
