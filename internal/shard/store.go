package shard

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/storage"
)

// Stores is the persistence side of the sharded plane: N independent
// storage.Store instances, one per shard, at "<path>.shard<i>". Each
// shard keeps its own segment chain, CRC framing, group-commit and
// recovery — PR 3's WAL story survives partitioning because every shard
// file IS a complete single-shard store.
//
// What a single store gets for free and a sharded one must reconstruct is
// the global arrival order: user registration order determines cluster
// labels and the AMI matrix, so Stores stamps every appended record with
// a monotone global sequence number (storage.Record.Seq, omitted from
// JSON for unsharded stores) and All() returns the union of all shards
// merged in its order — a bootstrap replay then registers users in exactly
// the order a single store would have.
//
// A cross-shard Append is not atomic: a crash between per-shard appends
// can persist a batch's records on some shards and not others. Each
// surviving record is still a complete, CRC-valid line, per-shard
// Recover() truncates torn tails independently, and the client's
// idempotent retry (collectclient) re-submits the whole batch; the chaos
// suite exercises exactly this seam.
type Stores struct {
	base   string
	stores []*storage.Store

	mu      sync.Mutex
	nextSeq int64
}

// StorePath returns shard i's store path for a base path.
func StorePath(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// OpenStores opens (creating if needed) n per-shard stores under base,
// one goroutine per shard when any shard file holds data, and resumes the
// global sequence counter from the highest Seq any shard read at open.
// The ".shard<i>" suffix never collides with segment naming: sealed
// segments are "<path>.<6 digits>", and "shard0" is not six digits.
func OpenStores(base string, n int, opts storage.Options) (*Stores, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: OpenStores with %d shards", n)
	}
	stored := false
	for i := 0; i < n && !stored; i++ {
		fi, err := os.Stat(StorePath(base, i))
		stored = err == nil && fi.Size() > 0
	}
	ss := &Stores{base: base, stores: make([]*storage.Store, n), nextSeq: 1}
	if err := eachShard(n, stored, func(i int) (err error) {
		ss.stores[i], err = storage.Open(StorePath(base, i), opts)
		return err
	}); err != nil {
		ss.Close()
		return nil, err
	}
	for _, st := range ss.stores {
		ss.nextSeq = max(ss.nextSeq, st.MaxSeq()+1)
	}
	return ss, nil
}

// eachShard runs fn for shards 0..n-1 and returns the first error in
// shard order. Shards run on goroutines of their own only when parallel
// is set, that is when they hold records to decode: for empty shards,
// waking goroutines costs more than the work.
func eachShard(n int, parallel bool, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		if !parallel {
			errs[i] = fn(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shards returns the number of shards.
func (ss *Stores) Shards() int { return len(ss.stores) }

// Shard returns shard i's underlying store (recovery, tests, metrics).
func (ss *Stores) Shard(i int) *storage.Store { return ss.stores[i] }

// Append stamps a copy of each record with the next global sequence
// number, routes it to its owning shard, and appends per shard. A batch
// one shard owns, such as a submission, is appended as that one copy.
// The input slice is not mutated (handlers reuse it for the analytics
// enqueue).
func (ss *Stores) Append(recs ...storage.Record) error {
	if len(recs) == 0 {
		return nil
	}
	stamped := slices.Clone(recs)
	ss.mu.Lock()
	for i := range stamped {
		stamped[i].Seq = ss.nextSeq
		ss.nextSeq++
	}
	ss.mu.Unlock()
	for sh, g := range split(stamped, len(ss.stores)) {
		if len(g) == 0 {
			continue
		}
		if err := ss.stores[sh].Append(g...); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// All returns every persisted record across all shards, read
// concurrently when there are any, merged into global arrival order by
// Seq (stable, so records sharing a Seq — only possible for pre-sharding
// data — keep shard order). This is the bootstrap-replay order: feeding
// it to an engine registers users exactly as the original submission
// stream did.
func (ss *Stores) All() ([]storage.Record, error) {
	parts := make([][]storage.Record, len(ss.stores))
	if err := eachShard(len(ss.stores), ss.Count() > 0, func(i int) (err error) {
		parts[i], err = ss.stores[i].All()
		return err
	}); err != nil {
		return nil, err
	}
	return mergeBySeq(parts), nil
}

// mergeBySeq merges the shards' reads into the stable Seq order of their
// shard-order concatenation, moving each record once. A shard's file is
// in Seq order unless concurrent appends interleaved in it; only such a
// read is stable-sorted first. On equal Seqs the lower shard goes first.
func mergeBySeq(parts [][]storage.Record) []storage.Record {
	n := 0
	for _, p := range parts {
		n += len(p)
		for i := 1; i < len(p); i++ {
			if p[i].Seq < p[i-1].Seq {
				slices.SortStableFunc(p, func(a, b storage.Record) int { return cmp.Compare(a.Seq, b.Seq) })
				break
			}
		}
	}
	all := make([]storage.Record, 0, n)
	for len(all) < n {
		next := -1
		for i, p := range parts {
			if len(p) > 0 && (next < 0 || p[0].Seq < parts[next][0].Seq) {
				next = i
			}
		}
		all = append(all, parts[next][0])
		parts[next] = parts[next][1:]
	}
	return all
}

// WriteTo streams every shard's records shard-by-shard (each shard's
// lines in its own append order) — the export surface. Consumers needing
// global order re-sort by the seq field each line carries.
func (ss *Stores) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, st := range ss.stores {
		n, err := st.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Recover salvages every shard's active file independently, concurrently
// when the stores hold records (WAL-style truncation at the first torn
// write, see storage.Store.Recover), and returns one report per shard, in
// shard order.
func (ss *Stores) Recover() ([]storage.RecoverReport, error) {
	reports := make([]storage.RecoverReport, len(ss.stores))
	err := eachShard(len(ss.stores), ss.Count() > 0, func(i int) (err error) {
		if reports[i], err = ss.stores[i].Recover(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
	return reports, err
}

// Count returns the total persisted record count across shards.
func (ss *Stores) Count() int {
	n := 0
	for _, st := range ss.stores {
		n += st.Count()
	}
	return n
}

// Path returns the base path the per-shard stores derive from.
func (ss *Stores) Path() string { return ss.base }

// Close closes every shard store, returning the first error.
func (ss *Stores) Close() error {
	var errs []error
	for _, st := range ss.stores {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}
