// Package shard partitions the ingest + analytics plane by user-id hash:
// N shards, each owning its own append-only store segment chain
// (internal/storage) and its own streaming engine (internal/streaming),
// behind an in-process router that fans accepted submissions to the
// owning shard and answers analytics reads from a merged snapshot
// (streaming.Merge).
//
// The partitioning contract is user-granular: every record of one user
// lands on one shard (Of is a pure function of the user ID), so per-user
// state — distinct-fingerprint sets, surface values, collation-graph
// membership — never splits. Fingerprint hashes are NOT partitioned: two
// users on different shards can emit the same hash, which is exactly the
// cross-shard cluster join streaming.Merge reconstructs. The shard
// engines of a plane share one collate.Interner, so a hash has one ID on
// every shard and the merge translates none.
//
// The correctness gate is bit-identity: a sharded replay of any record
// stream must serve /api/v1/analytics/* payloads byte-identical to a
// single engine ingesting the same stream (differential_test.go enforces
// this at the paper's 2093-user scale for N ∈ {1,2,3,8,16}); DESIGN.md
// §14 explains why the merge algebra guarantees it.
package shard

import (
	"sync"

	"repro/internal/hashx"
	"repro/internal/storage"
)

// routeSeed fixes the murmur3 seed of the user→shard mapping. It is part
// of the on-disk layout contract: changing it orphans every record in
// per-shard stores, so it is deliberately a constant rather than
// configuration.
const routeSeed = 0x66707368 // "fpsh"

// Of maps a user ID to its owning shard in [0, n). It is deterministic
// across processes and restarts (fixed-seed murmur3, no map state), and
// n <= 1 always routes to shard 0.
func Of(userID string, n int) int {
	if n <= 1 {
		return 0
	}
	h1, _ := hashx.Sum128([]byte(userID), routeSeed)
	return int(h1 % uint64(n))
}

// split groups recs by owning shard of n, each group in stream order. It
// hashes once per run of one user's records. When one shard owns the
// whole batch, that shard's group is recs itself; otherwise every group
// is carved, at its final size, out of one new array. A shard that owns
// none gets nil.
func split(recs []storage.Record, n int) [][]storage.Record {
	groups := make([][]storage.Record, n)
	// Runs of records one shard owns, each ending where the next begins.
	type run struct{ shard, end int }
	runs := make([]run, 0, 8)
	for i := 0; i < len(recs); {
		sh, j := Of(recs[i].UserID, n), i+1
		for j < len(recs) && recs[j].UserID == recs[i].UserID {
			j++
		}
		if k := len(runs) - 1; k >= 0 && runs[k].shard == sh {
			runs[k].end = j
		} else {
			runs = append(runs, run{sh, j})
		}
		i = j
	}
	switch len(runs) {
	case 0:
		return groups
	case 1:
		groups[runs[0].shard] = recs
		return groups
	}
	sizes := make([]int, n)
	start := 0
	for _, r := range runs {
		sizes[r.shard] += r.end - start
		start = r.end
	}
	all := make([]storage.Record, len(recs))
	for sh, size := range sizes {
		if size > 0 {
			groups[sh], all = all[:0:size], all[size:]
		}
	}
	start = 0
	for _, r := range runs {
		groups[r.shard] = append(groups[r.shard], recs[start:r.end]...)
		start = r.end
	}
	return groups
}

// fold runs fn on every non-empty group and returns once each call has.
// Two or more groups fold at once, one goroutine per shard; a lone group
// folds on the caller's goroutine, before anything is allocated for the
// goroutines.
func fold(groups [][]storage.Record, fn func(sh int, g []storage.Record)) {
	busy := 0
	for _, g := range groups {
		if len(g) > 0 {
			busy++
		}
	}
	if busy < 2 {
		for sh, g := range groups {
			if len(g) > 0 {
				fn(sh, g)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for sh, g := range groups {
		if len(g) > 0 {
			wg.Add(1)
			go func(sh int, g []storage.Record) {
				defer wg.Done()
				fn(sh, g)
			}(sh, g)
		}
	}
	wg.Wait()
}
