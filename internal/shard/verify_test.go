package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/population"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/verify"
)

// TestVerifiersDifferential: the acceptance gate for the sharded
// verification plane — for the same enrolled history, every decision
// (accept bit, score, evidence) must be identical across N ∈ {1,2,3,8}
// and identical to a single unsharded engine.
func TestVerifiersDifferential(t *testing.T) {
	ev, err := study.BuildEvolved(study.EvolvedConfig{
		LongitudinalConfig: study.LongitudinalConfig{
			Seed: 5, Users: 60, Epochs: 4, SamplesPerEpoch: 2,
		},
		Vectors:     []vectors.ID{vectors.DC, vectors.FFT, vectors.Hybrid},
		Churn:       population.DefaultChurn(),
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Enrollment records: the first two epochs.
	var recs []storage.Record
	for _, v := range ev.Vectors {
		for e := 0; e < 2; e++ {
			for u, user := range ev.Users {
				for _, h := range ev.Obs[v][e][u] {
					recs = append(recs, storage.Record{UserID: user, Vector: v.String(), Hash: h})
				}
			}
		}
	}
	single := verify.New(verify.Config{})
	single.Enroll(recs)

	// Probe set: every user genuine at epoch 2, plus an impostor claim and
	// an unknown user.
	samplesAt := func(u, e int) []verify.Sample {
		var out []verify.Sample
		for _, v := range ev.Vectors {
			for _, h := range ev.Obs[v][e][u] {
				out = append(out, verify.Sample{Vector: v, Hash: h})
			}
		}
		return out
	}

	for _, n := range []int{1, 2, 3, 8} {
		vs, err := NewVerifiers(n, verify.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vs.Enroll(recs)
		if got := vs.Stats().Users; got != len(ev.Users) {
			t.Fatalf("N=%d: merged users = %d, want %d", n, got, len(ev.Users))
		}
		for u, user := range ev.Users {
			want, err1 := single.Verify(user, samplesAt(u, 2))
			got, err2 := vs.Verify(user, samplesAt(u, 2))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("N=%d user %s: error mismatch %v vs %v", n, user, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d user %s: decision differs:\n single: %+v\nsharded: %+v", n, user, want, got)
			}
			// Impostor: the next user's samples under this user's name.
			imp := (u + 1) % len(ev.Users)
			want, _ = single.Verify(user, samplesAt(imp, 3))
			got, _ = vs.Verify(user, samplesAt(imp, 3))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d user %s impostor: decision differs", n, user)
			}
		}
		if _, err := vs.Verify("no-such-user", samplesAt(0, 2)); err == nil {
			t.Fatalf("N=%d: unknown user accepted", n)
		}
	}
}

// TestVerifiersRouting: enrollment must land each user on Of(user, n) and
// nowhere else.
func TestVerifiersRouting(t *testing.T) {
	const n = 4
	vs, err := NewVerifiers(n, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for _, u := range users {
		vs.Enroll([]storage.Record{{UserID: u, Vector: "DC", Hash: "aa"}})
	}
	for _, u := range users {
		owner := Of(u, n)
		for i := 0; i < n; i++ {
			st := vs.Engine(i).Stats()
			if i == owner {
				continue
			}
			if _, err := vs.Engine(i).Verify(u, nil); err == nil {
				t.Errorf("user %s known to non-owning shard %d (owner %d, shard users %d)",
					u, i, owner, st.Users)
			}
		}
	}
	if vs.Stats().Users != len(users) {
		t.Errorf("merged users = %d, want %d", vs.Stats().Users, len(users))
	}
}

// TestNewVerifiersValidation: zero shards is an error.
func TestNewVerifiersValidation(t *testing.T) {
	if _, err := NewVerifiers(0, verify.Config{}); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// TestVerifiersEnrollReadYourWrites pins the sharded plane's visibility
// guarantee: once Verifiers.Enroll returns, a Verify that starts afterwards
// recognizes every enrolled hash on the owning shard, while other
// goroutines enroll and verify their own users concurrently. `make check`
// runs it under -race at -count=50.
func TestVerifiersEnrollReadYourWrites(t *testing.T) {
	vs, err := NewVerifiers(4, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, users = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < users; i++ {
				user := fmt.Sprintf("w%d-u%d", w, i)
				var recs []storage.Record
				var samples []verify.Sample
				for _, v := range vectors.All {
					h := fmt.Sprintf("%s-%v", user, v)
					recs = append(recs, storage.Record{UserID: user, Vector: v.String(), Hash: h})
					samples = append(samples, verify.Sample{Vector: v, Hash: h})
				}
				vs.Enroll(recs)
				d, err := vs.Verify(user, samples)
				if err != nil {
					t.Errorf("%s: verify right after enroll: %v", user, err)
					return
				}
				if !d.Accept {
					t.Errorf("%s: rejected right after enroll (score %v)", user, d.Score)
				}
				for _, ve := range d.Vectors {
					if ve.Recognized != ve.Samples {
						t.Errorf("%s: %s recognized %d of %d enrolled hashes", user, ve.Vector, ve.Recognized, ve.Samples)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
