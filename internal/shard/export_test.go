package shard

import (
	"repro/internal/streaming"
	"repro/internal/verify"
)

// Merged returns the router's merged state.
func (r *Router) Merged() *streaming.State { return r.merged() }

// Engine returns shard i's engine.
func (v *Verifiers) Engine(i int) *verify.Engine { return v.engines[i] }
