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
	"strings"
	"sync"

	"repro/internal/collate"
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
	// Interner numbers the enrolled hashes; the sharded wrapper gives its
	// engines one, and a server may share it with its analytics plane.
	// Nil makes the engine its own.
	Interner *collate.Interner
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

	// in gives each distinct hash of a vector one dense ID and keeps the
	// string once, however many users hold it (Config.Interner).
	in *collate.Interner

	mu    sync.RWMutex
	users map[string]int32 // user ID → index into hists
	// hists holds each user's stored history: per vector, the IDs of the
	// distinct hashes ever enrolled, sorted so recognition is a binary
	// search. The exact strings behind the IDs are kept, not a digest:
	// hashes come from clients, and a truncated digest would let two
	// different strings compare equal.
	hists   []collate.UserSets
	records int64

	accepted, rejected, unknown int64

	metAccept, metReject, metUnknown *obs.Counter
}

// numVectors bounds the vector IDs an Engine stores history for.
const numVectors = collate.NumVectors

// New builds an Engine.
func New(cfg Config) *Engine {
	if cfg.Threshold == 0 {
		if cfg.Calibration != nil && cfg.Calibration.EERThreshold > 0 {
			cfg.Threshold = cfg.Calibration.EERThreshold
		} else {
			cfg.Threshold = DefaultThreshold
		}
	}
	e := &Engine{cfg: cfg, in: cfg.Interner, users: make(map[string]int32)}
	if e.in == nil {
		e.in = collate.NewInterner()
	}
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
	// Each record's vector is parsed once, -1 for a record that enrolls
	// nothing, and one interner call resolves its hash to its ID.
	n := len(recs)
	buf := make([]int32, 2*n)
	vecs, ids := buf[:n], buf[n:]
	for i := range recs {
		vecs[i] = -1
		if r := &recs[i]; r.Hash != "" && r.UserID != "" {
			if v, err := vectors.ParseID(r.Vector); err == nil {
				vecs[i] = int32(v)
			}
		}
	}
	e.in.Intern(ids, func(i int) (int, string) { return int(vecs[i]), recs[i].Hash })
	for i, id := range ids {
		if id < 0 {
			continue
		}
		rec := &recs[i]
		u, ok := e.users[rec.UserID]
		if !ok {
			u = int32(len(e.hists))
			e.users[rec.UserID] = u
			e.hists = append(e.hists, collate.UserSets{})
		}
		e.hists[u].Insert(int(vecs[i]), id)
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
	u, known := e.users[userID]
	if !known {
		return 0, nil, false
	}
	hist := &e.hists[u]

	// One array holds each sample's hash ID and the samples' order. The
	// IDs come from one lookup, which never inserts: a hash the plane never
	// interned is in no user's set, so impostor probes leave the interner
	// as it was. The order is the samples sorted stably by vector name,
	// the evidence order, whose runs are the per-vector groups.
	n := len(samples)
	buf := make([]int32, 2*n)
	ids, order := buf[:n], buf[n:]
	e.in.Lookup(ids, func(i int) (int, string) {
		if v := samples[i].Vector; v >= 0 && int(v) < numVectors {
			return int(v), samples[i].Hash
		}
		return -1, ""
	})
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return strings.Compare(samples[a].Vector.String(), samples[b].Vector.String())
	})
	groups := 0
	for i := range order {
		if i == 0 || samples[order[i]].Vector != samples[order[i-1]].Vector {
			groups++
		}
	}
	if groups > 0 {
		evidence = make([]VectorEvidence, 0, groups)
	}

	var sum float64
	var scored int
	for lo := 0; lo < n; {
		v := samples[order[lo]].Vector
		hi := lo + 1
		for hi < n && samples[order[hi]].Vector == v {
			hi++
		}
		group := order[lo:hi]
		lo = hi
		ve := VectorEvidence{Vector: v.String(), Samples: len(group)}
		var set []int32
		if v >= 0 && int(v) < numVectors {
			set = hist.Set(int(v))
		}
		if len(set) == 0 {
			// The user was never observed on this vector: the submission
			// is neither confirming nor refuting, so it stays out of the
			// score — a verifier cannot hold absent enrollment against a
			// genuine user.
			ve.Outcome = "no_history"
			evidence = append(evidence, ve)
			continue
		}
		for _, j := range group {
			if id := ids[j]; id >= 0 {
				if _, found := slices.BinarySearch(set, id); found {
					ve.Recognized++
				}
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
