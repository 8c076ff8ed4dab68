package shard

import (
	"fmt"
	"strconv"

	"repro/internal/collate"
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
// with its shard index. The engines share cfg.Interner, or one interner
// made here when it is nil, so a hash two shards enroll is kept once.
func NewVerifiers(n int, cfg verify.Config) (*Verifiers, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 verifier shard, got %d", n)
	}
	if cfg.Interner == nil {
		cfg.Interner = collate.NewInterner()
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

// Enroll routes each record to its user's owning shard. The shards a batch
// reaches enroll their groups concurrently, one goroutine each (a batch
// one shard owns, such as a submission, enrolls on the caller's), and
// Enroll returns once every shard has. It is read-your-writes like
// verify.Engine.Enroll: once Enroll returns, every Verify that starts
// afterwards recognizes the enrolled hashes, so a submission the server
// has acknowledged with 202 can be verified at once.
func (v *Verifiers) Enroll(recs []storage.Record) {
	if len(recs) == 0 {
		return
	}
	fold(split(recs, len(v.engines)), func(sh int, g []storage.Record) {
		v.engines[sh].Enroll(g)
	})
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
