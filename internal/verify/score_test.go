package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/vectors"
)

// mapGroupedScore is the decision as first written: samples grouped
// through a map, the vectors sorted by name, evidence appended per vector,
// each hash looked up in the string-set oracle's history.
func mapGroupedScore(o *oracle, userID string, samples []Sample) (float64, []VectorEvidence, bool) {
	hist, known := o.users[userID]
	if !known {
		return 0, nil, false
	}
	byVec := make(map[vectors.ID][]string)
	for _, s := range samples {
		byVec[s.Vector] = append(byVec[s.Vector], s.Hash)
	}
	vecs := make([]vectors.ID, 0, len(byVec))
	for v := range byVec {
		vecs = append(vecs, v)
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].String() < vecs[j].String() })
	var evidence []VectorEvidence
	var sum float64
	var scored int
	for _, v := range vecs {
		hashes := byVec[v]
		ve := VectorEvidence{Vector: v.String(), Samples: len(hashes)}
		i := historyIndex(hist, v)
		if i < 0 {
			ve.Outcome = "no_history"
			evidence = append(evidence, ve)
			continue
		}
		for _, h := range hashes {
			if recognized(hist[i].hashes, h) {
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

// TestScoreMatchesMapGrouping: over random sample sets — duplicate
// hashes, foreign hashes, vectors the user was never seen on, empty sets
// and unknown users — Score must return exactly the map-grouped decision
// over the same enrollments in the string-set oracle.
func TestScoreMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, o := New(Config{}), newOracle()
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("u%d", u)
		for _, v := range vectors.All {
			if rng.Intn(4) == 0 {
				continue // no history on v
			}
			for h := 0; h < 1+rng.Intn(3); h++ {
				hash := fmt.Sprintf("%v-%d-%d", v, u, h)
				e.EnrollHashes(user, v, hash)
				o.Enroll([]storage.Record{{UserID: user, Vector: v.String(), Hash: hash}})
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		claimed := rng.Intn(22) // u20 and u21 are unknown
		user := fmt.Sprintf("u%d", claimed)
		samples := make([]Sample, rng.Intn(12))
		for i := range samples {
			v := vectors.All[rng.Intn(len(vectors.All))]
			owner := claimed // the user's own hash half of the time
			if rng.Intn(2) == 0 {
				owner = rng.Intn(22)
			}
			samples[i] = Sample{Vector: v, Hash: fmt.Sprintf("%v-%d-%d", v, owner, rng.Intn(3))}
		}
		score, evidence, known := e.Score(user, samples)
		wantScore, wantEvidence, wantKnown := mapGroupedScore(o, user, samples)
		if score != wantScore || known != wantKnown || !reflect.DeepEqual(evidence, wantEvidence) {
			t.Fatalf("trial %d (%s, %v):\ngot  %v %v %+v\nwant %v %v %+v",
				trial, user, samples, score, known, evidence, wantScore, wantKnown, wantEvidence)
		}
	}
}

// TestScoreAllocs pins a decision to two allocations: the sorted copy of
// the samples and the evidence slice.
func TestScoreAllocs(t *testing.T) {
	e, probe := benchEngine(50, 3)
	user := fmt.Sprintf("u%05d", 25)
	probe = append(probe, probe[0], probe[3]) // duplicate vectors group too
	if n := testing.AllocsPerRun(100, func() { e.Score(user, probe) }); n > 2 {
		t.Errorf("Score allocates %v times per decision, want ≤ 2", n)
	}
}
