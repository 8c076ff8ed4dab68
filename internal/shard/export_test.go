package shard

import "repro/internal/streaming"

// Merged returns the router's merged state.
func (r *Router) Merged() *streaming.State { return r.merged() }
