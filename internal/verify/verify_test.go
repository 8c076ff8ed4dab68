package verify

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vectors"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	e.Enroll([]storage.Record{
		{UserID: "alice", Vector: "DC", Hash: "aa01"},
		{UserID: "alice", Vector: "DC", Hash: "aa02"}, // churned second hash
		{UserID: "alice", Vector: "FFT", Hash: "ff01"},
		{UserID: "bob", Vector: "DC", Hash: "bb01"},
		{UserID: "bob", Vector: "Canvas", Hash: "cc01"}, // aux surface: ignored
		{UserID: "", Vector: "DC", Hash: "dd01"},        // no user: ignored
	})
	return e
}

func TestVerifyDecisions(t *testing.T) {
	e := testEngine(t, Config{})
	if e.Users() != 2 {
		t.Fatalf("Users = %d, want 2 (aux/empty records ignored)", e.Users())
	}

	// Genuine: both vectors recognized.
	d, err := e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.FFT, Hash: "ff01"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accept || d.Score != 1 {
		t.Errorf("genuine full match: accept=%v score=%v", d.Accept, d.Score)
	}
	if len(d.Vectors) != 2 || d.Vectors[0].Outcome != "unique" {
		t.Errorf("evidence = %+v", d.Vectors)
	}

	// Churned genuine: older DC hash still recognized from the history.
	d, err = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "aa02"}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accept || d.Score != 1 {
		t.Errorf("churned hash: accept=%v score=%v", d.Accept, d.Score)
	}

	// Impostor: bob's hashes under alice's name.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "bb01"},
		{Vector: vectors.FFT, Hash: "nope"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept || d.Score != 0 {
		t.Errorf("impostor: accept=%v score=%v", d.Accept, d.Score)
	}
	for _, ve := range d.Vectors {
		if ve.Outcome != "none" {
			t.Errorf("impostor evidence outcome = %q, want none", ve.Outcome)
		}
	}

	// Partial: one of two DC hashes known → score 0.5, rejected at the
	// calibrated default threshold.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.DC, Hash: "unknown"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Score != 0.5 || d.Accept {
		t.Errorf("partial: score=%v accept=%v, want 0.5/reject", d.Score, d.Accept)
	}

	// Vector without history stays out of the score.
	d, err = e.Verify("alice", []Sample{
		{Vector: vectors.DC, Hash: "aa01"},
		{Vector: vectors.AM, Hash: "9999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Score != 1 {
		t.Errorf("no-history vector dragged score to %v", d.Score)
	}
	var am *VectorEvidence
	for i := range d.Vectors {
		if d.Vectors[i].Vector == "AM" {
			am = &d.Vectors[i]
		}
	}
	if am == nil || am.Outcome != "no_history" {
		t.Errorf("AM evidence = %+v, want no_history", am)
	}

	// Unknown user.
	if _, err := e.Verify("mallory", []Sample{{Vector: vectors.DC, Hash: "aa01"}}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user error = %v", err)
	}

	st := e.Stats()
	if st.Accepted != 3 || st.Rejected != 2 || st.UnknownUsers != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Threshold != DefaultThreshold {
		t.Errorf("threshold = %v", st.Threshold)
	}
}

func TestVerifyThresholdFromCalibration(t *testing.T) {
	cal := &Calibration{EER: 0.1, EERThreshold: 0.62}
	e := New(Config{Calibration: cal})
	if e.Threshold() != 0.62 {
		t.Errorf("threshold = %v, want calibration's 0.62", e.Threshold())
	}
	if e.Stats().Calibration != cal {
		t.Error("stats does not carry the calibration")
	}
	if th := New(Config{Threshold: 0.8, Calibration: cal}).Threshold(); th != 0.8 {
		t.Errorf("explicit threshold overridden: %v", th)
	}
}

func TestVerifyMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Registry: reg, MetricLabels: obs.Labels{"shard": "0"}})
	_, _ = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "aa01"}})
	_, _ = e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: "zz"}})
	_, _ = e.Verify("nobody", nil)
	var buf strings.Builder
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`verify_decisions_total{decision="accept",shard="0"} 1`,
		`verify_decisions_total{decision="reject",shard="0"} 1`,
		`verify_decisions_total{decision="unknown_user",shard="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestCalibrate(t *testing.T) {
	// Perfectly separable scores: EER must be 0 at some threshold between
	// the populations.
	var trials []Trial
	for i := 0; i < 50; i++ {
		trials = append(trials, Trial{Score: 0.9, Genuine: true}, Trial{Score: 0.1, Genuine: false})
	}
	cal := Calibrate(trials)
	if cal.EER != 0 {
		t.Errorf("separable EER = %v, want 0", cal.EER)
	}
	if cal.EERThreshold <= 0.1 || cal.EERThreshold > 0.9 {
		t.Errorf("EER threshold = %v, want in (0.1, 0.9]", cal.EERThreshold)
	}
	if cal.GenuineTrials != 50 || cal.ImpostorTrials != 50 {
		t.Errorf("trial counts = %d/%d", cal.GenuineTrials, cal.ImpostorTrials)
	}
	if len(cal.Points) != 101 {
		t.Errorf("points = %d, want 101", len(cal.Points))
	}
	// Fully overlapping scores: FAR+FRR always sums to 1 at the crossing,
	// EER = 0.5.
	trials = trials[:0]
	for i := 0; i < 50; i++ {
		trials = append(trials, Trial{Score: 0.5, Genuine: true}, Trial{Score: 0.5, Genuine: false})
	}
	if cal := Calibrate(trials); cal.EER != 0.5 {
		t.Errorf("overlapping EER = %v, want 0.5", cal.EER)
	}
}

// TestEnrollSortedDistinct: a user's history on a vector is the sorted set
// of distinct enrolled strings, compared exactly — the oracle holds that
// set and the engine must decide as it does; every record still counts
// toward Stats.Records.
func TestEnrollSortedDistinct(t *testing.T) {
	e, o := New(Config{}), newOracle()
	enroll := func(v vectors.ID, h string) {
		e.EnrollHashes("alice", v, h)
		o.Enroll([]storage.Record{{UserID: "alice", Vector: v.String(), Hash: h}})
	}
	for _, h := range []string{"c3", "a1", "b2", "a1", "c3", "a10"} {
		enroll(vectors.DC, h)
	}
	enroll(vectors.FFT, "ff")
	want := []string{"a1", "a10", "b2", "c3"}
	hist := o.users["alice"]
	if i := historyIndex(hist, vectors.DC); i < 0 || strings.Join(hist[i].hashes, ",") != strings.Join(want, ",") {
		t.Errorf("oracle DC history = %+v, want %v", hist, want)
	}
	if got, want := e.Stats(), o.Stats(); got.Records != 7 || got != want {
		t.Errorf("Stats = %+v, want %+v with Records 7", got, want)
	}
	probe := []Sample{
		{Vector: vectors.DC, Hash: "a1"},
		{Vector: vectors.DC, Hash: "a"}, // a prefix of enrolled hashes
		{Vector: vectors.DC, Hash: "c3"},
		{Vector: vectors.DC, Hash: "c30"},
	}
	d, err := e.Verify("alice", probe)
	if err != nil {
		t.Fatal(err)
	}
	if ev := d.Vectors[0]; ev.Recognized != 2 || ev.Samples != 4 || ev.Outcome != "unique" {
		t.Errorf("DC evidence = %+v, want 2 of 4 recognized", ev)
	}
	if od, _ := o.Verify("alice", probe); !reflect.DeepEqual(d, od) {
		t.Errorf("decision = %+v, oracle's = %+v", d, od)
	}
	for _, h := range append(want, "a", "c30", "ff") {
		d, _ := e.Verify("alice", []Sample{{Vector: vectors.DC, Hash: h}})
		od, _ := o.Verify("alice", []Sample{{Vector: vectors.DC, Hash: h}})
		if !reflect.DeepEqual(d, od) {
			t.Errorf("probe %q: decision = %+v, oracle's = %+v", h, d, od)
		}
	}
}

// TestEnrollReadYourWrites pins Enroll's visibility guarantee: once Enroll
// returns, a Verify that starts afterwards recognizes every enrolled hash,
// while other goroutines enroll and verify their own users concurrently.
// `make check` runs it under -race at -count=50.
func TestEnrollReadYourWrites(t *testing.T) {
	e := New(Config{})
	const workers, users = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < users; i++ {
				user := fmt.Sprintf("w%d-u%d", w, i)
				var recs []storage.Record
				var samples []Sample
				for _, v := range vectors.All {
					h := fmt.Sprintf("%s-%v", user, v)
					recs = append(recs, storage.Record{UserID: user, Vector: v.String(), Hash: h})
					samples = append(samples, Sample{Vector: v, Hash: h})
				}
				e.Enroll(recs)
				d, err := e.Verify(user, samples)
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
