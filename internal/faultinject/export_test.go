package faultinject

import "time"

// IsInjected reports whether err was produced by this package.
func IsInjected(err error) bool {
	_, ok := err.(*InjectedError)
	return ok
}

// DelayDuration returns the sleep applied when Delay fires.
func (s *Schedule) DelayDuration() time.Duration { return s.delay }

// Injected returns how many faults of class c have fired so far.
func (s *Schedule) Injected(c Class) uint64 { return s.injected[c].Load() }
