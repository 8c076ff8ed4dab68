// Package faultinject is a seeded, deterministic fault-injection layer for
// exercising the collection pipeline under failure: an http.RoundTripper
// that drops, delays, truncates, corrupts, and 5xxs requests, a net.Listener
// that resets fresh connections, and an io.Writer that tears and corrupts
// writes — all according to a reproducible schedule.
//
// Determinism: every fault decision is a pure function of (seed, fault
// class, per-class call index), so the nth Drop decision is identical across
// runs regardless of goroutine interleaving. That makes chaos failures
// replayable: re-running with the same spec re-injects the same faults at
// the same points of each class's call sequence.
//
// Every injected fault increments the faultinject_injected_total{fault=...}
// counter on the schedule's obs registry, so a /metrics scrape shows exactly
// which failures a run survived.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Class identifies one fault class of a schedule.
type Class int

const (
	// Drop fails the request before it reaches the server (connection lost).
	Drop Class = iota
	// DropResponse delivers the request but loses the response — the
	// duplicate-maker: the server did the work, the client can't know.
	DropResponse
	// Delay sleeps before forwarding the request.
	Delay
	// HTTP500 returns a synthetic 503 without reaching the server (an
	// upstream proxy or load balancer failing).
	HTTP500
	// Truncate cuts the response body short mid-stream.
	Truncate
	// Corrupt flips a byte of the payload (response body or written bytes).
	Corrupt
	// TornWrite persists a prefix of the buffer, then fails (a crash mid
	// write).
	TornWrite
	numClasses
)

var classNames = [numClasses]string{
	"drop", "drop-response", "delay", "http500", "truncate", "corrupt", "torn-write",
}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return "unknown"
	}
	return classNames[c]
}

// InjectedError is the error returned for transport-level injected faults.
type InjectedError struct {
	// Class is the fault class that fired.
	Class Class
}

func (e *InjectedError) Error() string {
	return "faultinject: injected " + e.Class.String()
}

// Schedule decides, deterministically, which calls a fault fires on. The
// zero probability for every class makes a Schedule a no-op. Safe for
// concurrent use.
type Schedule struct {
	seed     int64
	probs    [numClasses]float64
	delay    time.Duration
	calls    [numClasses]atomic.Uint64
	injected [numClasses]atomic.Uint64
	counters [numClasses]*obs.Counter
}

// NewSchedule builds a schedule with the given seed and per-class
// probabilities. Metrics register on reg (nil = obs.Default).
func NewSchedule(seed int64, probs map[Class]float64, delay time.Duration, reg *obs.Registry) *Schedule {
	s := &Schedule{seed: seed, delay: delay}
	for c, p := range probs {
		if c >= 0 && c < numClasses {
			s.probs[c] = p
		}
	}
	if s.delay <= 0 {
		s.delay = 5 * time.Millisecond
	}
	if reg == nil {
		reg = obs.Default
	}
	for c := Class(0); c < numClasses; c++ {
		s.counters[c] = reg.Counter("faultinject_injected_total",
			"Faults injected by the chaos schedule, by class.",
			obs.Labels{"fault": c.String()})
	}
	return s
}

// ParseSpec parses a fault schedule from its textual form:
//
//	seed=7,drop=0.1,dropresp=0.05,delay=0.1:20ms,http500=0.1,truncate=0.05,corrupt=0.02,torn=0.5
//
// Every field is optional; unknown keys are errors. Probabilities are in
// [0,1]. The delay field takes prob:duration. Metrics register on reg
// (nil = obs.Default).
func ParseSpec(spec string, reg *obs.Registry) (*Schedule, error) {
	var (
		seed  int64 = 1
		delay time.Duration
		probs = map[Class]float64{}
	)
	keys := map[string]Class{
		"drop": Drop, "dropresp": DropResponse, "delay": Delay,
		"http500": HTTP500, "truncate": Truncate, "corrupt": Corrupt,
		"torn": TornWrite,
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: field %q is not key=value", field)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		c, ok := keys[k]
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown fault class %q", k)
		}
		pStr := v
		if c == Delay {
			if p, d, ok := strings.Cut(v, ":"); ok {
				dur, err := time.ParseDuration(d)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad delay duration %q: %v", d, err)
				}
				delay, pStr = dur, p
			}
		}
		p, err := strconv.ParseFloat(pStr, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("faultinject: probability %q for %s out of [0,1]", pStr, c)
		}
		probs[c] = p
	}
	return NewSchedule(seed, probs, delay, reg), nil
}

// Hit consumes one decision for class c and reports whether the fault
// fires. The outcome depends only on (seed, c, how many times c was asked
// before), never on timing.
func (s *Schedule) Hit(c Class) bool {
	n := s.calls[c].Add(1) - 1
	if s.probs[c] <= 0 {
		return false
	}
	x := splitmix64(uint64(s.seed) ^ (uint64(c)+1)*0x9e3779b97f4a7c15 ^ splitmix64(n))
	if float64(x>>11)/(1<<53) >= s.probs[c] {
		return false
	}
	s.injected[c].Add(1)
	s.counters[c].Inc()
	return true
}

// String summarizes injected-fault counts, for logs and test failure
// messages.
func (s *Schedule) String() string {
	parts := make([]string, 0, numClasses)
	for c := Class(0); c < numClasses; c++ {
		if n := s.injected[c].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, " ")
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash that
// turns (seed, class, index) into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
