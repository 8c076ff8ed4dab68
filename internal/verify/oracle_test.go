package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/collate"
	"repro/internal/storage"
	"repro/internal/vectors"
)

// oracle is the string-set engine the interned Engine replaced, kept as
// the reference its decisions must equal: per user, one entry per vector
// holding the sorted distinct hash strings ever enrolled.
type oracle struct {
	threshold                   float64
	users                       map[string][]vectorHistory
	records                     int64
	accepted, rejected, unknown int64
}

// vectorHistory is one user's stored history on one vector.
type vectorHistory struct {
	vector vectors.ID
	hashes []string
}

func newOracle() *oracle {
	return &oracle{threshold: DefaultThreshold, users: make(map[string][]vectorHistory)}
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

func (o *oracle) Enroll(recs []storage.Record) {
	for _, rec := range recs {
		v, err := vectors.ParseID(rec.Vector)
		if err != nil || rec.Hash == "" || rec.UserID == "" {
			continue
		}
		hist := o.users[rec.UserID]
		i := historyIndex(hist, v)
		if i < 0 {
			i = len(hist)
			hist = append(hist, vectorHistory{vector: v})
			o.users[rec.UserID] = hist
		}
		set := hist[i].hashes
		if j := sort.SearchStrings(set, rec.Hash); j == len(set) || set[j] != rec.Hash {
			set = append(set, "")
			copy(set[j+1:], set[j:])
			set[j] = rec.Hash
			hist[i].hashes = set
		}
		o.records++
	}
}

func (o *oracle) Score(userID string, samples []Sample) (float64, []VectorEvidence, bool) {
	hist, known := o.users[userID]
	if !known {
		return 0, nil, false
	}
	sorted := slices.Clone(samples)
	slices.SortStableFunc(sorted, func(a, b Sample) int {
		return strings.Compare(a.Vector.String(), b.Vector.String())
	})
	var evidence []VectorEvidence
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
	var score float64
	if scored > 0 {
		score = sum / float64(scored)
	}
	return score, evidence, true
}

func (o *oracle) Verify(userID string, samples []Sample) (Decision, error) {
	score, evidence, known := o.Score(userID, samples)
	if !known {
		o.unknown++
		return Decision{}, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	d := Decision{UserID: userID, Score: score, Threshold: o.threshold,
		Accept: score >= o.threshold, Vectors: evidence}
	if d.Accept {
		o.accepted++
	} else {
		o.rejected++
	}
	return d, nil
}

func (o *oracle) Stats() StatsSnapshot {
	return StatsSnapshot{Users: len(o.users), Records: o.records, Accepted: o.accepted,
		Rejected: o.rejected, UnknownUsers: o.unknown, Threshold: o.threshold}
}

// TestEngineMatchesOracle: over random enroll and verify sequences the
// interned engine's decisions, evidence and Stats equal the string-set
// oracle's. Hashes are drawn from a small pool per vector, so users share
// them and batches repeat them; every enrolled string is a fresh copy, as
// a decoded request carries it. Probes mix enrolled hashes, their proper
// prefixes, foreign hashes and the empty hash, over vectors the claimed
// user has no history on and vector IDs outside the seven; claims include
// unknown users, and batches carry auxiliary, unparseable and empty
// fields.
func TestEngineMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, o := New(Config{}), newOracle()
		pool := make([][]string, numVectors)
		for v := range pool {
			for h := 0; h < 2+rng.Intn(6); h++ {
				pool[v] = append(pool[v], fmt.Sprintf("%x", rng.Uint64()>>uint(rng.Intn(40))))
			}
		}
		const users = 24 // u0..u23; claims reach u29, never enrolled
		// Each user enrolls on a subset of the vectors, so most users have
		// no history on some vector.
		onVec := make([][]vectors.ID, users)
		for u := range onVec {
			for _, v := range vectors.All {
				if rng.Intn(3) > 0 {
					onVec[u] = append(onVec[u], v)
				}
			}
		}
		var noHistory, prefixes, outOfRange, unknown, accepts int
		for step := 0; step < 3000; step++ {
			if rng.Intn(3) == 0 {
				u := rng.Intn(users)
				batch := make([]storage.Record, rng.Intn(12))
				for i := range batch {
					r := storage.Record{UserID: fmt.Sprintf("u%d", u), Vector: "Canvas", Hash: "cc01"}
					if len(onVec[u]) > 0 && rng.Intn(8) > 0 {
						v := onVec[u][rng.Intn(len(onVec[u]))]
						r.Vector = v.String()
						r.Hash = strings.Clone(pool[v][rng.Intn(len(pool[v]))])
					}
					switch rng.Intn(40) {
					case 0:
						r.Hash = ""
					case 1:
						r.UserID = ""
					case 2:
						r.Vector = vectors.ID(9).String()
					}
					batch[i] = r
				}
				e.Enroll(batch)
				o.Enroll(batch)
				continue
			}
			claimed := fmt.Sprintf("u%d", rng.Intn(users+6))
			samples := make([]Sample, rng.Intn(10))
			for i := range samples {
				v := vectors.ID(rng.Intn(numVectors + 2)) // ID(7) and ID(8) are out of range
				if rng.Intn(20) == 0 {
					v = -1
				}
				s := Sample{Vector: v, Hash: fmt.Sprintf("%x", rng.Uint64())}
				if int(v) >= 0 && int(v) < numVectors {
					h := pool[v][rng.Intn(len(pool[v]))]
					switch rng.Intn(6) {
					case 0:
						s.Hash = h[:rng.Intn(len(h))]
						prefixes++
					case 1, 2:
					default:
						s.Hash = strings.Clone(h)
					}
				} else {
					outOfRange++
				}
				samples[i] = s
			}
			got, gotErr := e.Verify(claimed, samples)
			want, wantErr := o.Verify(claimed, samples)
			if errors.Is(gotErr, ErrUnknownUser) != errors.Is(wantErr, ErrUnknownUser) ||
				fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Verify(%s, %v)\ngot  %+v %v\nwant %+v %v",
					seed, step, claimed, samples, got, gotErr, want, wantErr)
			}
			if wantErr != nil {
				unknown++
			}
			if want.Accept {
				accepts++
			}
			for _, ve := range want.Vectors {
				if ve.Outcome == "no_history" {
					noHistory++
				}
			}
		}
		if got, want := e.Stats(), o.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Stats\ngot  %+v\nwant %+v", seed, got, want)
		}
		// The generator must have reached every case it is meant to cover.
		for name, n := range map[string]int{"no_history": noHistory, "prefix probes": prefixes,
			"out-of-range vectors": outOfRange, "unknown users": unknown, "accepts": accepts} {
			if n == 0 {
				t.Errorf("seed %d: no %s drawn", seed, name)
			}
		}
	}
}

// TestScoreLeavesInternTablesUnchanged: probes with hashes the engine
// never enrolled, on every vector, from known and unknown users, grow no
// space of the interner and add no user or history.
func TestScoreLeavesInternTablesUnchanged(t *testing.T) {
	e, _ := benchEngine(20, 2)
	sizes := func() []int {
		out := []int{len(e.users), len(e.hists)}
		for s := 0; s <= collate.NumVectors; s++ {
			out = append(out, e.in.Len(s))
		}
		for _, h := range e.hists {
			for v := 0; v < numVectors; v++ {
				out = append(out, len(h.Set(v)))
			}
		}
		return out
	}
	before := sizes()
	for _, user := range []string{"u00003", "nobody"} {
		var probe []Sample
		for v := vectors.ID(-1); int(v) <= numVectors; v++ {
			probe = append(probe, Sample{Vector: v, Hash: "unseen"}, Sample{Vector: v, Hash: ""})
		}
		_, _ = e.Verify(user, probe)
	}
	if after := sizes(); !slices.Equal(after, before) {
		t.Errorf("table sizes after unseen probes = %v, want %v", after, before)
	}
}
