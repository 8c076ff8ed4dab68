package study

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/storage"
	"repro/internal/vectors"
)

// Surface keys used in storage.Record.Surfaces.
const (
	SurfaceCanvas   = "canvas"
	SurfaceFonts    = "fonts"
	SurfaceMathJS   = "mathjs"
	SurfacePlatform = "platform"
)

// ToRecords flattens a dataset into storage records, the format the
// collection backend persists and exports. Non-audio surfaces ride on each
// user's first record.
func (ds *Dataset) ToRecords(receivedAt time.Time) []storage.Record {
	recs := make([]storage.Record, 0, len(ds.Users)*len(vectors.All)*ds.Iterations)
	for ui, user := range ds.Users {
		surfaces := map[string]string{
			SurfaceCanvas:   ds.Canvas[ui],
			SurfaceFonts:    ds.Fonts[ui],
			SurfaceMathJS:   ds.MathJS[ui],
			SurfacePlatform: ds.Platforms[ui],
		}
		first := true
		for _, v := range vectors.All {
			for it, h := range ds.Obs[v][ui] {
				rec := storage.Record{
					SessionID:  "sim",
					UserID:     user,
					Vector:     v.String(),
					Iteration:  it,
					Hash:       h,
					UserAgent:  ds.UA[ui],
					ReceivedAt: receivedAt,
				}
				if first {
					rec.Surfaces = surfaces
					first = false
				}
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

// LoadOptions configures FromRecordsOpts.
type LoadOptions struct {
	// KeepAllObservations retains every record's hash in arrival order
	// instead of compacting per-iteration maps to the minimum common
	// coverage: rows become ragged, duplicate (vector, iteration) replays
	// append rather than overwrite, and users missing a vector entirely get
	// an empty row (they stay singleton clusters for that vector). This is
	// the load mode whose collation graph and diversity rows the streaming
	// engine reproduces bit-identically on any record prefix — the paper's
	// batch analyses keep using the default compacting mode.
	KeepAllObservations bool
}

// FromRecords reconstructs a Dataset from stored collection records — the
// analysis entry point for real exports. Users appear in order of first
// record. Every user must cover the same audio vectors; missing iterations
// are tolerated by compacting each user's per-vector observations (analyses
// operate on whatever repetition count the smallest coverage provides).
func FromRecords(recs []storage.Record) (*Dataset, error) {
	return FromRecordsOpts(recs, LoadOptions{})
}

// FromRecordsOpts is FromRecords with explicit load options.
func FromRecordsOpts(recs []storage.Record, opt LoadOptions) (*Dataset, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("study: no records")
	}
	type userData struct {
		idx      int
		ua       string
		surfaces map[string]string
		obs      map[vectors.ID]map[int]string
		seq      map[vectors.ID][]string // keep-all mode: hashes in arrival order
	}
	users := map[string]*userData{}
	var order []string

	for _, r := range recs {
		u := users[r.UserID]
		if u == nil {
			u = &userData{idx: len(order)}
			if opt.KeepAllObservations {
				u.seq = map[vectors.ID][]string{}
			} else {
				u.obs = map[vectors.ID]map[int]string{}
			}
			users[r.UserID] = u
			order = append(order, r.UserID)
		}
		if u.ua == "" {
			u.ua = r.UserAgent
		}
		if len(r.Surfaces) > 0 {
			if u.surfaces == nil {
				u.surfaces = map[string]string{}
			}
			for k, v := range r.Surfaces {
				u.surfaces[k] = v
			}
		}
		v, err := vectors.ParseID(r.Vector)
		if err != nil {
			continue // auxiliary vectors (MathJS rows etc.) ride in Surfaces
		}
		if opt.KeepAllObservations {
			u.seq[v] = append(u.seq[v], r.Hash)
			continue
		}
		m := u.obs[v]
		if m == nil {
			m = map[int]string{}
			u.obs[v] = m
		}
		m[r.Iteration] = r.Hash
	}

	// Determine the common iteration count: the minimum per-user per-vector
	// coverage (compacted), or the maximum row length when keeping all
	// observations (rows stay ragged; Iterations is advisory).
	iterations := -1
	if opt.KeepAllObservations {
		for _, u := range users {
			for _, v := range vectors.All {
				if n := len(u.seq[v]); n > iterations {
					iterations = n
				}
			}
		}
	} else {
		for _, u := range users {
			for _, v := range vectors.All {
				n := len(u.obs[v])
				if n == 0 {
					return nil, fmt.Errorf("study: a user has no %v observations", v)
				}
				if iterations < 0 || n < iterations {
					iterations = n
				}
			}
		}
	}

	ds := &Dataset{
		Users:      order,
		Iterations: iterations,
		Obs:        make(map[vectors.ID][][]string, len(vectors.All)),
		UA:         make([]string, len(order)),
		Canvas:     make([]string, len(order)),
		Fonts:      make([]string, len(order)),
		MathJS:     make([]string, len(order)),
		Platforms:  make([]string, len(order)),
	}
	for _, v := range vectors.All {
		ds.Obs[v] = make([][]string, len(order))
	}
	for _, user := range order {
		u := users[user]
		ds.UA[u.idx] = u.ua
		ds.Canvas[u.idx] = u.surfaces[SurfaceCanvas]
		ds.Fonts[u.idx] = u.surfaces[SurfaceFonts]
		ds.MathJS[u.idx] = u.surfaces[SurfaceMathJS]
		ds.Platforms[u.idx] = u.surfaces[SurfacePlatform]
		for _, v := range vectors.All {
			if opt.KeepAllObservations {
				ds.Obs[v][u.idx] = u.seq[v]
				continue
			}
			// Compact observed iterations in ascending order.
			its := make([]int, 0, len(u.obs[v]))
			for it := range u.obs[v] {
				its = append(its, it)
			}
			sort.Ints(its)
			row := make([]string, iterations)
			for k := 0; k < iterations; k++ {
				row[k] = u.obs[v][its[k]]
			}
			ds.Obs[v][u.idx] = row
		}
	}
	ds.idx = buildIndex(ds.Obs)
	return ds, nil
}
