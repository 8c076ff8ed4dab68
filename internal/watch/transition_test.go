package watch

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
)

// TestTransitionHookLifecycle drives a divergence rule through
// open→fire→resolve and asserts the hook sees each user-visible state
// change exactly once, outside the monitor lock (the hook calls Snapshot,
// which would deadlock if delivery happened under m.mu).
func TestTransitionHookLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()

	type seen struct {
		rule, from, to string
		firing         int
	}
	var got []seen
	mon, err := New(Config{
		Engine:   eng,
		Registry: reg,
		Rules: []Rule{{
			Name: "render-divergence", Kind: KindRenderDivergence,
			Every: 1, For: 2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetTransitionHook(func(a Alert, from, to string) {
		// Calling back into the monitor must not deadlock.
		snap := mon.Snapshot()
		got = append(got, seen{a.Rule, from, to, snap.Firing})
	})

	div := reg.Counter("vectors_render_divergence_total", "", nil)

	div.Inc()
	mon.Observe(1) // breach 1: opens pending
	mon.Observe(2) // clean: cancels pending silently
	div.Inc()
	mon.Observe(3) // breach 1: opens pending again
	div.Inc()
	mon.Observe(4) // breach 2: promotes to firing
	mon.Observe(5) // clean: resolves

	// Expected sequence: open, (silent cancel), open, fire, resolve.
	exp := []struct{ from, to string }{
		{"", StatePending},
		{"", StatePending},
		{StatePending, StateFiring},
		{StateFiring, StateResolved},
	}
	if len(got) != len(exp) {
		t.Fatalf("hook saw %d transitions %+v, want %d", len(got), got, len(exp))
	}
	for i, e := range exp {
		if got[i].from != e.from || got[i].to != e.to {
			t.Errorf("transition %d = %s->%s, want %s->%s",
				i, got[i].from, got[i].to, e.from, e.to)
		}
		if got[i].rule != "render-divergence" {
			t.Errorf("transition %d rule = %q", i, got[i].rule)
		}
	}
	// The firing transition must be observable via Snapshot from inside
	// the hook (delivery happens after the evaluation pass commits).
	if got[2].firing != 1 {
		t.Errorf("Snapshot inside firing hook reports %d firing, want 1", got[2].firing)
	}
}

func TestRuleByName(t *testing.T) {
	reg := obs.NewRegistry()
	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()
	mon, err := New(Config{Engine: eng, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := mon.RuleByName("render-divergence")
	if !ok {
		t.Fatal("RuleByName(render-divergence) not found in DefaultRules")
	}
	if r.Kind != KindRenderDivergence {
		t.Errorf("kind = %q", r.Kind)
	}
	if r.DivergenceMetric == "" {
		t.Error("rule not normalized: DivergenceMetric empty")
	}
	if _, ok := mon.RuleByName("no-such-rule"); ok {
		t.Error("RuleByName(no-such-rule) = true")
	}
}

// TestConfigOnTransition checks the Config-field form of the hook wiring.
func TestConfigOnTransition(t *testing.T) {
	reg := obs.NewRegistry()
	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()
	var fired int
	_, err := New(Config{
		Engine:   eng,
		Registry: reg,
		Rules: []Rule{{
			Name: "render-divergence", Kind: KindRenderDivergence,
			Every: 1, For: 1,
		}},
		OnTransition: func(a Alert, from, to string) {
			if to == StateFiring {
				fired++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("vectors_render_divergence_total", "", nil).Inc()
	// The observer evaluates rules at the applied-record count, so drive a
	// real record through the engine.
	eng.Apply([]storage.Record{{UserID: "u0", Vector: vectors.DC.String(), Hash: "cafe"}})
	if fired != 1 {
		t.Fatalf("firing transitions = %d, want 1", fired)
	}
}

// TestHookDeliveredBeforeSync pins the hook's read-after-Sync contract:
// records go through the engine's async queue, and once Sync returns every
// transition they produced is in the hook's log, exactly once and in
// production order. The log is a plain slice the hook appends to on the
// engine's goroutine and the test reads without a lock, so under -race
// the test also checks that Sync orders the hook's writes before the read.
func TestHookDeliveredBeforeSync(t *testing.T) {
	reg := obs.NewRegistry()
	eng := streaming.New(streaming.Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()

	type event struct {
		from, to string
		at       int64 // the applied-record count of the transition
	}
	var log []event
	_, err := New(Config{
		Engine:   eng,
		Registry: reg,
		Rules: []Rule{{
			Name: "churn", Kind: KindClusterChurn, Vector: vectors.DC.String(),
			Every: 10, For: 1, MaxChurn: 0.5,
		}},
		OnTransition: func(a Alert, from, to string) {
			at := a.PendingAtRecords
			switch to {
			case StateFiring:
				at = a.FiredAtRecords
			case StateResolved:
				at = a.ResolvedAtRecords
			}
			log = append(log, event{from, to, at})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// calm(c) adds ten new users, each with a fingerprint of its own: the
	// churn rule sees clusters track users. storm(c) has calm(c-1)'s users
	// converge on one fingerprint: nine merges in ten records fire it.
	calm := func(c int) {
		for i := 0; i < 10; i++ {
			eng.EnqueueContext(ctx, []storage.Record{rec(fmt.Sprintf("c%d-%d", c, i), fmt.Sprintf("calm-%d-%d", c, i))})
		}
	}
	storm := func(c int) {
		for i := 0; i < 10; i++ {
			eng.EnqueueContext(ctx, []storage.Record{rec(fmt.Sprintf("c%d-%d", c-1, i), fmt.Sprintf("storm-%d", c))})
		}
	}
	var want []event
	check := func(phase string) {
		t.Helper()
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("after %s the hook has seen %v, want %v", phase, log, want)
		}
	}

	calm(0) // the rule's first evaluation only sets its baseline
	check("the baseline")
	for c := 1; c <= 20; c++ {
		storm(c)
		at := int64(20 * c)
		want = append(want, event{"", StatePending, at}, event{StatePending, StateFiring, at})
		check(fmt.Sprintf("storm %d", c))
		calm(c)
		want = append(want, event{StateFiring, StateResolved, at + 10})
		check(fmt.Sprintf("calm %d", c))
	}
}
