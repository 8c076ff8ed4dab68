package study

import (
	"repro/internal/collate"
	"repro/internal/vectors"
)

// Index is the dataset-wide interning table: every elementary fingerprint
// hash of every vector is assigned a dense int32 ID once, so the analysis
// sweeps (which rebuild thousands of collation graphs over the same
// observations) never hash a string twice. Users are already dense — their
// slice position in Dataset.Users is their ID. An Index is immutable after
// construction and safe for concurrent readers.
type Index struct {
	byVec map[vectors.ID]*vecIndex
}

// vecIndex holds one vector's interned view of Dataset.Obs.
type vecIndex struct {
	ids      [][]int32 // user → iteration → dense fingerprint ID
	universe int       // number of distinct fingerprints
}

// buildIndex interns every observation. Fingerprint IDs are assigned in
// first-appearance order scanning users then iterations, so construction
// is deterministic for a given Obs.
func buildIndex(obs map[vectors.ID][][]string) *Index {
	ix := &Index{byVec: make(map[vectors.ID]*vecIndex, len(obs))}
	for v, rows := range obs {
		total := 0
		for _, r := range rows {
			total += len(r)
		}
		vx := &vecIndex{ids: make([][]int32, len(rows))}
		intern := make(map[string]int32, 256) // hash → dense ID
		backing := make([]int32, 0, total)
		for ui, r := range rows {
			start := len(backing)
			for _, h := range r {
				id, ok := intern[h]
				if !ok {
					id = int32(len(intern))
					intern[h] = id
				}
				backing = append(backing, id)
			}
			vx.ids[ui] = backing[start:len(backing):len(backing)]
		}
		vx.universe = len(intern)
		ix.byVec[v] = vx
	}
	return ix
}

// ObsIDs returns vector v's observations as interned IDs, aligned with
// Dataset.Obs (user → iteration). The returned slices are shared and must
// not be modified.
func (ix *Index) ObsIDs(v vectors.ID) [][]int32 {
	if vx := ix.byVec[v]; vx != nil {
		return vx.ids
	}
	return nil
}

// intGraphOf builds the int-keyed collation graph of v restricted to the
// given iteration indices (nil = all iterations) — the fast-path
// equivalent of Dataset.Graph. It only reads the immutable index, so any
// number of goroutines may build graphs concurrently.
func intGraphOf(ix *Index, numUsers int, v vectors.ID, iters []int) *collate.IntGraph {
	vx := ix.byVec[v]
	g := collate.NewIntGraph(numUsers, vx.universe)
	for ui, row := range vx.ids {
		if iters == nil {
			for _, id := range row {
				g.AddObservation(int32(ui), id)
			}
			continue
		}
		for _, it := range iters {
			g.AddObservation(int32(ui), row[it])
		}
	}
	return g
}

// denseInfo caches a vector's full-graph clustering in interned form: the
// per-user dense labels plus the cluster statistics Tables 2/4 need.
// Everything is computed once under Dataset.mu and immutable afterwards.
type denseInfo struct {
	labels []int32 // per-user cluster label, first-appearance canonical
	k      int     // number of clusters
	unique int     // clusters with exactly one user
}

// dense returns (building and caching on first use) vector v's full-graph
// dense clustering.
func (ds *Dataset) dense(v vectors.ID) *denseInfo {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if d, ok := ds.denseByVec[v]; ok {
		return d
	}
	sp := ds.span("collate/" + v.String())
	defer sp.End()
	g := intGraphOf(ds.indexLocked(), len(ds.Users), v, nil)
	labels, k := g.Labels()
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	d := &denseInfo{labels: labels, k: k}
	for _, s := range sizes {
		if s == 1 {
			d.unique++
		}
	}
	if ds.denseByVec == nil {
		ds.denseByVec = make(map[vectors.ID]*denseInfo, len(vectors.All))
	}
	ds.denseByVec[v] = d
	return d
}

// Index returns the dataset's interning table, building it on first use
// for datasets not produced by Run or FromRecords.
func (ds *Dataset) Index() *Index {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.indexLocked()
}

func (ds *Dataset) indexLocked() *Index {
	if ds.idx == nil {
		ds.idx = buildIndex(ds.Obs)
	}
	return ds.idx
}
