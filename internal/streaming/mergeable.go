package streaming

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/collate"
	"repro/internal/vectors"
)

// State is a population's analysis state, and its methods in snapshot.go
// are the one implementation of every analytics payload. An engine grows
// one live State record by record; Engine.State hands out self-contained
// copies that can be combined with the states of other engines — the
// merge algebra the sharded ingest plane is built on (DESIGN.md §14). Each
// shard's engine owns a disjoint slice of the user population; a copy
// captures that slice together with the per-user global arrival sequence,
// and Merge folds two slices into one whose analytics payloads are
// bit-identical to an engine that ingested the union directly.
//
// Merge is associative and commutative, with NewState() as the identity —
// the property that lets a router fold shard snapshots in any order (or a
// tree) and serve one answer. The proof obligation is discharged by the
// payload shapes: every served quantity depends only on (a) the user
// partition of each vector's collation graph, (b) the global user order
// reconstructed from Seq, and (c) per-user values/counts — none on the
// shard-local dense ID assignment that differs between merge orders.
type State struct {
	// Users holds the user IDs in this state's dense order; Seq holds each
	// user's global first-seen sequence number, which only Merge reads.
	// Within one engine the dense order is arrival order, so Engine.State
	// stamps Seq 0..n-1; a router overwrites Seq with its global ledger
	// before merging so the merged dense order reproduces the single-engine
	// arrival order exactly (labels and AMI depend on it).
	Users []string
	Seq   []int64
	// Records counts applied records (audio + auxiliary).
	Records int64
	// Surfs holds per-surface, per-user current values in surface index
	// order (surfCanvas..surfUA) — value counts are built per read, so
	// they merge by concatenation.
	Surfs [][]string
	// Vecs holds one VecState per vectors.All entry.
	Vecs []VecState
}

// VecState is one audio vector's mergeable analysis state.
type VecState struct {
	// Hashes maps this state's dense fingerprint ID to the fingerprint
	// hash — the intern table exported in ID order, which is what lets
	// Merge translate two shard-local universes into one. Only Merge
	// reads it, so an engine fills it in Engine.State's copy.
	Hashes []string
	// Graph is the collation graph over this state's users and Hashes.
	Graph *collate.IntGraph
	// Distinct holds each user's distinct-fingerprint count (users are
	// shard-disjoint, so counts merge by scatter).
	Distinct []int
	// Obs counts observations applied, duplicates included.
	Obs int64
}

// State returns a deep copy of the engine's live state, stamped with local
// sequence numbers 0..n-1 (dense order == arrival order within one
// engine) and with each vector's Hashes exported from the intern table.
// The copy shares nothing with the live engine.
func (e *Engine) State() *State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.st
	c := &State{
		Users:   slices.Clone(s.Users),
		Seq:     make([]int64, len(s.Users)),
		Records: s.Records,
		Surfs:   make([][]string, len(s.Surfs)),
		Vecs:    make([]VecState, len(s.Vecs)),
	}
	for i := range c.Seq {
		c.Seq[i] = int64(i)
	}
	for i, values := range s.Surfs {
		c.Surfs[i] = slices.Clone(values)
	}
	for i, vs := range s.Vecs {
		hashes := make([]string, len(e.vecs[i].intern))
		for h, id := range e.vecs[i].intern {
			hashes[id] = h
		}
		c.Vecs[i] = VecState{
			Hashes:   hashes,
			Graph:    vs.Graph.Clone(),
			Distinct: slices.Clone(vs.Distinct),
			Obs:      vs.Obs,
		}
	}
	return c
}

// NewState returns the merge identity: an empty state over zero users.
func NewState() *State {
	s := &State{
		Surfs: make([][]string, numSurfaces),
		Vecs:  make([]VecState, len(vectors.All)),
	}
	for i := range s.Vecs {
		s.Vecs[i] = VecState{Graph: collate.NewIntGraph(0, 0)}
	}
	return s
}

// Merge combines two states over disjoint user sets into a new state and
// leaves both inputs untouched. The merged dense user order is by
// ascending Seq (user ID as a tie-break, which never fires when Seq comes
// from one global ledger), so a router stamping global sequences gets back
// the single-engine arrival order. Sharing a user between the two states
// is a routing bug and returns an error.
func (s *State) Merge(o *State) (*State, error) {
	na, nb := len(s.Users), len(o.Users)
	m := &State{
		Users:   make([]string, 0, na+nb),
		Seq:     make([]int64, 0, na+nb),
		Records: s.Records + o.Records,
		Surfs:   make([][]string, numSurfaces),
		Vecs:    make([]VecState, len(s.Vecs)),
	}
	// Two-pointer merge by (Seq, Users) producing each input's user→merged
	// translation.
	mapA := make([]int32, na)
	mapB := make([]int32, nb)
	i, j := 0, 0
	for i < na || j < nb {
		takeA := j >= nb
		if i < na && j < nb {
			switch {
			case s.Seq[i] < o.Seq[j]:
				takeA = true
			case s.Seq[i] > o.Seq[j]:
				takeA = false
			default:
				takeA = s.Users[i] < o.Users[j]
			}
		}
		if takeA {
			mapA[i] = int32(len(m.Users))
			m.Users = append(m.Users, s.Users[i])
			m.Seq = append(m.Seq, s.Seq[i])
			i++
		} else {
			mapB[j] = int32(len(m.Users))
			m.Users = append(m.Users, o.Users[j])
			m.Seq = append(m.Seq, o.Seq[j])
			j++
		}
	}
	if overlap := findOverlap(m.Users); overlap != "" {
		return nil, fmt.Errorf("streaming: Merge states share user %q", overlap)
	}
	for si := 0; si < numSurfaces; si++ {
		m.Surfs[si] = make([]string, len(m.Users))
		for u, v := range s.Surfs[si] {
			m.Surfs[si][mapA[u]] = v
		}
		for u, v := range o.Surfs[si] {
			m.Surfs[si][mapB[u]] = v
		}
	}
	for vi := range s.Vecs {
		a, b := &s.Vecs[vi], &o.Vecs[vi]
		// Merged intern table: a's hashes keep their IDs, b's unseen
		// hashes append in b's ID order. The assignment order differs
		// between merge orders, but no payload reads fingerprint IDs —
		// only partition structure and per-user counts.
		hashes := append([]string(nil), a.Hashes...)
		idx := make(map[string]int32, len(a.Hashes)+len(b.Hashes))
		for id, h := range hashes {
			idx[h] = int32(id)
		}
		fpMapA := make([]int32, len(a.Hashes))
		for id := range fpMapA {
			fpMapA[id] = int32(id)
		}
		fpMapB := make([]int32, len(b.Hashes))
		for id, h := range b.Hashes {
			mid, ok := idx[h]
			if !ok {
				mid = int32(len(hashes))
				hashes = append(hashes, h)
				idx[h] = mid
			}
			fpMapB[id] = mid
		}
		g := collate.NewIntGraph(len(m.Users), len(hashes))
		g.Merge(a.Graph, mapA, fpMapA)
		g.Merge(b.Graph, mapB, fpMapB)
		distinct := make([]int, len(m.Users))
		for u, d := range a.Distinct {
			distinct[mapA[u]] = d
		}
		for u, d := range b.Distinct {
			distinct[mapB[u]] = d
		}
		m.Vecs[vi] = VecState{
			Hashes:   hashes,
			Graph:    g,
			Distinct: distinct,
			Obs:      a.Obs + b.Obs,
		}
	}
	return m, nil
}

// findOverlap returns a user ID appearing twice in the sorted-by-arrival
// merged list, or "". Duplicates are detected with a sorted copy so the
// scan is O(n log n) without a map allocation per merge.
func findOverlap(users []string) string {
	if len(users) < 2 {
		return ""
	}
	sorted := append([]string(nil), users...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i]
		}
	}
	return ""
}
