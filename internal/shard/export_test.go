package shard

import (
	"repro/internal/streaming"
	"repro/internal/verify"
)

// Merged returns a merge of the router's shard states.
func (r *Router) Merged() *streaming.State {
	m, _ := r.merge()
	return m
}

// Engine returns shard i's engine.
func (v *Verifiers) Engine(i int) *verify.Engine { return v.engines[i] }
