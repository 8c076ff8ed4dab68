package population

import (
	"math"
	"math/rand"
	"testing"
)

// TestChurnStepDeterminism: the same seed must produce the identical event
// sequence and identical device mutations.
func TestChurnStepDeterminism(t *testing.T) {
	model := DefaultChurn()
	run := func() ([]ChurnEvent, []string) {
		devs := Sample(Config{Seed: 7, N: 20})
		rng := rand.New(rand.NewSource(99))
		var events []ChurnEvent
		var stacks []string
		for epoch := 0; epoch < 10; epoch++ {
			for _, d := range devs {
				events = append(events, model.Step(rng, d))
				stacks = append(stacks, d.AudioStackKey())
			}
		}
		return events, stacks
	}
	e1, s1 := run()
	e2, s2 := run()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs between identical runs: %+v vs %+v", i, e1[i], e2[i])
		}
		if s1[i] != s2[i] {
			t.Fatalf("stack key %d differs between identical runs", i)
		}
	}
}

// TestChurnRateCalibration: over a large population the observed upgrade
// frequencies must land within tolerance of the configured rates, and
// stack shifts must occur but only on a fraction of upgrades.
func TestChurnRateCalibration(t *testing.T) {
	model := ChurnModel{BrowserUpgradeProb: 0.12, OSUpgradeProb: 0.05}
	devs := Sample(Config{Seed: 3, N: 1500})
	rng := rand.New(rand.NewSource(4))
	const epochs = 12
	var browser, os, shifts, steps int
	for epoch := 0; epoch < epochs; epoch++ {
		for _, d := range devs {
			ev := model.Step(rng, d)
			steps++
			if ev.BrowserUpgrade {
				browser++
			}
			if ev.OSUpgrade {
				os++
			}
			if ev.StackShift {
				shifts++
			}
		}
	}
	browserRate := float64(browser) / float64(steps)
	if math.Abs(browserRate-model.BrowserUpgradeProb) > 0.015 {
		t.Errorf("browser upgrade rate = %.4f, configured %.2f", browserRate, model.BrowserUpgradeProb)
	}
	// OS upgrades re-sample the release distribution, so a draw can land on
	// the same version; the observed rate is bounded by the configured one.
	osRate := float64(os) / float64(steps)
	if osRate > model.OSUpgradeProb+0.01 || osRate < model.OSUpgradeProb/3 {
		t.Errorf("os upgrade rate = %.4f, configured %.2f", osRate, model.OSUpgradeProb)
	}
	if shifts == 0 {
		t.Error("no stack shifts over 18k churn steps; upgrades never crossed a DSP revision cut")
	}
	if shifts >= browser+os {
		t.Errorf("shifts (%d) >= upgrade events (%d); most upgrades must keep the stack", shifts, browser+os)
	}
}

// TestChurnZeroModel: the zero model never mutates a device.
func TestChurnZeroModel(t *testing.T) {
	var model ChurnModel
	devs := Sample(Config{Seed: 11, N: 50})
	rng := rand.New(rand.NewSource(1))
	for _, d := range devs {
		before := d.AudioStackKey()
		for i := 0; i < 5; i++ {
			if ev := model.Step(rng, d); ev != (ChurnEvent{}) {
				t.Fatalf("zero model produced event %+v", ev)
			}
		}
		if d.AudioStackKey() != before {
			t.Fatal("zero model shifted a stack key")
		}
	}
}
