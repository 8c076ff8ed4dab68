package shard

import (
	"fmt"
	"strconv"

	"repro/internal/storage"
	"repro/internal/verify"
)

// Verifiers is the sharded verification plane: one verify.Engine per
// shard, with enrollment and decisions routed by the same user-hash
// partition the stores and analytics router use. Because Of is
// user-granular, the owning shard holds a user's entire history — and
// because a verify decision depends only on the claimed user's history,
// every decision is bit-identical to a single engine over the same records
// (the differential test pins this).
type Verifiers struct {
	engines []*verify.Engine
}

// NewVerifiers builds n engines from cfg, tagging each engine's metrics
// with its shard index.
func NewVerifiers(n int, cfg verify.Config) (*Verifiers, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 verifier shard, got %d", n)
	}
	v := &Verifiers{engines: make([]*verify.Engine, n)}
	for i := range v.engines {
		ecfg := cfg
		if cfg.Registry != nil {
			labels := make(map[string]string, len(cfg.MetricLabels)+1)
			for k, val := range cfg.MetricLabels {
				labels[k] = val
			}
			labels["shard"] = strconv.Itoa(i)
			ecfg.MetricLabels = labels
		}
		v.engines[i] = verify.New(ecfg)
	}
	return v, nil
}

// Shards returns the shard count.
func (v *Verifiers) Shards() int { return len(v.engines) }

// Engine returns shard i's engine (tests and diagnostics).
func (v *Verifiers) Engine(i int) *verify.Engine { return v.engines[i] }

// Enroll routes each record to its user's owning shard. It is
// read-your-writes like verify.Engine.Enroll: once Enroll returns, every
// Verify that starts afterwards recognizes the enrolled hashes, so a
// submission the server has acknowledged with 202 can be verified at once.
func (v *Verifiers) Enroll(recs []storage.Record) {
	if len(v.engines) == 1 {
		v.engines[0].Enroll(recs)
		return
	}
	byShard := make(map[int][]storage.Record)
	for _, rec := range recs {
		s := Of(rec.UserID, len(v.engines))
		byShard[s] = append(byShard[s], rec)
	}
	for s, part := range byShard {
		v.engines[s].Enroll(part)
	}
}

// Verify answers from the claimed user's owning shard.
func (v *Verifiers) Verify(userID string, samples []verify.Sample) (verify.Decision, error) {
	return v.engines[Of(userID, len(v.engines))].Verify(userID, samples)
}

// Stats merges the per-shard snapshots: counters sum, the threshold and
// calibration are identical by construction.
func (v *Verifiers) Stats() verify.StatsSnapshot {
	out := v.engines[0].Stats()
	for _, e := range v.engines[1:] {
		s := e.Stats()
		out.Users += s.Users
		out.Records += s.Records
		out.Accepted += s.Accepted
		out.Rejected += s.Rejected
		out.UnknownUsers += s.UnknownUsers
	}
	return out
}
