package streaming

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/collate"
	"repro/internal/vectors"
)

// State is a population's analysis state, and its methods in snapshot.go
// are the one implementation of every analytics payload. An engine grows
// one live State record by record; Engine.State hands out copies that can
// be combined with the states of the other engines sharing its interner —
// the merge algebra the sharded ingest plane is built on (DESIGN.md §14). Each
// shard's engine owns a disjoint slice of the user population; a copy
// captures that slice together with the per-user global arrival sequence,
// and Merge combines any number of slices in one pass into a state whose
// analytics payloads are bit-identical to an engine that ingested the
// union directly.
//
// The payloads do not depend on the order or grouping of the states
// merged, and NewState() merges as nothing, so a router can merge its
// shard copies in one call and serve one answer. The proof obligation is
// discharged by the payload shapes: every served quantity depends only on
// (a) the user partition of each vector's collation graph, (b) the global
// user order reconstructed from Seq, and (c) per-user values/counts —
// none on fingerprint or surface IDs, which follow the order in which the
// plane's engines first interned the values.
//
// A state numbers fingerprints and surface values in its engine's
// collate.Interner, and carries it. States are mergeable only when they
// share one: the IDs then mean the same in every state, so the merge
// translates none.
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
	// Surfs holds per-surface, per-user current value IDs in surface
	// index order (surfCanvas..surfUA); 0 is "", the value of a user who
	// has none. Value counts are built per read, so they merge by
	// concatenation.
	Surfs [][]int32
	// Vecs holds one VecState per vectors.All entry.
	Vecs []VecState
	// in numbers the fingerprint and surface IDs; nil for NewState's
	// state, which holds none.
	in *collate.Interner
}

// VecState is one audio vector's mergeable analysis state.
type VecState struct {
	// Graph is the collation graph over this state's users and the
	// interner's fingerprint IDs of the vector.
	Graph *collate.IntGraph
	// Distinct holds each user's distinct-fingerprint count (users are
	// shard-disjoint, so counts merge by scatter).
	Distinct []int32
	// Obs counts observations applied, duplicates included.
	Obs int64
}

// State returns a deep copy of the engine's live state, stamped with local
// sequence numbers 0..n-1 (dense order == arrival order within one
// engine). The copy shares nothing with the live engine but its interner.
func (e *Engine) State() *State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.st
	c := &State{
		Users:   slices.Clone(s.Users),
		Seq:     make([]int64, len(s.Users)),
		Records: s.Records,
		Surfs:   make([][]int32, len(s.Surfs)),
		Vecs:    make([]VecState, len(s.Vecs)),
		in:      s.in,
	}
	for i := range c.Seq {
		c.Seq[i] = int64(i)
	}
	for i, values := range s.Surfs {
		c.Surfs[i] = slices.Clone(values)
	}
	for i, vs := range s.Vecs {
		c.Vecs[i] = VecState{
			Graph:    vs.Graph.Clone(),
			Distinct: slices.Clone(vs.Distinct),
			Obs:      vs.Obs,
		}
	}
	return c
}

// NewState returns the merge identity: an empty state over zero users. It
// has no interner, so it merges with any state.
func NewState() *State {
	s := &State{
		Surfs: make([][]int32, numSurfaces),
		Vecs:  make([]VecState, len(vectors.All)),
	}
	for i := range s.Vecs {
		s.Vecs[i] = VecState{Graph: collate.NewIntGraph(0, 0)}
	}
	return s
}

// Merge combines states over disjoint user sets into one and leaves every
// input untouched; Merge() is NewState() and Merge(s) is s itself. The
// merged dense user order is by ascending Seq (user ID as a tie-break,
// which never fires when Seq comes from one global ledger), so a router
// stamping global sequences gets back the single-engine arrival order.
// Sharing a user between two states is a routing bug and returns an
// error, and so do states of two interners, whose IDs mean different
// things.
func Merge(states ...*State) (*State, error) {
	switch len(states) {
	case 0:
		return NewState(), nil
	case 1:
		return states[0], nil
	}
	var in *collate.Interner
	for _, s := range states {
		if s.in == nil {
			continue
		}
		if in != nil && s.in != in {
			return nil, errors.New("streaming: Merge states of two interners")
		}
		in = s.in
	}
	// One sort by (Seq, user ID) over every state's users gives the
	// merged order and each state's user→merged translation.
	type entry struct {
		seq  int64
		id   string
		s, u int32
	}
	n := 0
	for _, s := range states {
		n += len(s.Users)
	}
	order := make([]entry, 0, n)
	m := &State{Surfs: make([][]int32, numSurfaces), Vecs: make([]VecState, len(states[0].Vecs)), in: in}
	userMaps := make([][]int32, len(states))
	for si, s := range states {
		for u, id := range s.Users {
			order = append(order, entry{s.Seq[u], id, int32(si), int32(u)})
		}
		userMaps[si] = make([]int32, len(s.Users))
		m.Records += s.Records
	}
	slices.SortFunc(order, func(a, b entry) int {
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		return strings.Compare(a.id, b.id)
	})
	m.Users, m.Seq = make([]string, n), make([]int64, n)
	for k, e := range order {
		m.Users[k], m.Seq[k] = e.id, e.seq
		userMaps[e.s][e.u] = int32(k)
	}
	if overlap := findOverlap(m.Users); overlap != "" {
		return nil, fmt.Errorf("streaming: Merge states share user %q", overlap)
	}
	for si := range m.Surfs {
		m.Surfs[si] = make([]int32, n)
		for k, e := range order {
			m.Surfs[si][k] = states[e.s].Surfs[si][e.u]
		}
	}
	for vi := range m.Vecs {
		// The states share the interner's fingerprint IDs, so each graph
		// merges as it is into one graph over the whole universe.
		universe := 0
		if in != nil {
			universe = in.Len(vi)
		}
		mv := VecState{Graph: collate.NewIntGraph(n, universe), Distinct: make([]int32, n)}
		for si, s := range states {
			vs := &s.Vecs[vi]
			mv.Graph.Merge(vs.Graph, userMaps[si])
			for u, d := range vs.Distinct {
				mv.Distinct[userMaps[si][u]] = d
			}
			mv.Obs += vs.Obs
		}
		m.Vecs[vi] = mv
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
