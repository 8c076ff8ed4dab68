package streaming

import (
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/diversity"
	"repro/internal/vectors"
)

// Snapshot types carry their own JSON tags: they are the payloads of the
// GET /api/v1/analytics/* routes.

// DiversityRow is one Table 2/3-style row of the live population.
type DiversityRow struct {
	Name        string  `json:"name"`
	Users       int     `json:"users"`
	Distinct    int     `json:"distinct"`
	Unique      int     `json:"unique"`
	EntropyBits float64 `json:"entropy_bits"`
	Normalized  float64 `json:"normalized"`
}

// EntropySnapshot is the live diversity table: the seven collated audio
// vectors, their combination, and the non-audio surfaces.
type EntropySnapshot struct {
	Records int64          `json:"records"`
	Users   int            `json:"users"`
	Rows    []DiversityRow `json:"rows"`
}

// ClusterRow is one vector's live collation-graph statistics.
type ClusterRow struct {
	Vector       string `json:"vector"`
	Users        int    `json:"users"`
	Clusters     int    `json:"clusters"`
	Unique       int    `json:"unique"`
	Fingerprints int    `json:"fingerprints"`
	Observations int64  `json:"observations"`
}

// ClusterSnapshot is the live per-vector collation state.
type ClusterSnapshot struct {
	Records int64        `json:"records"`
	Users   int          `json:"users"`
	Rows    []ClusterRow `json:"rows"`
}

// StabilityRow is one vector's live Table 1 row: distinct elementary
// fingerprints per user.
type StabilityRow struct {
	Vector string  `json:"vector"`
	Min    int     `json:"min"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
}

// StabilitySnapshot is the live stability table.
type StabilitySnapshot struct {
	Records int64          `json:"records"`
	Users   int            `json:"users"`
	Rows    []StabilityRow `json:"rows"`
}

// AMISnapshot is the periodically refreshed pairwise-vector AMI matrix
// (Figure 5). Records is the applied-record count at refresh time —
// unlike the other snapshots it can lag the live state by up to
// Config.AMIRefreshEvery records.
type AMISnapshot struct {
	Records int64       `json:"records"`
	Vectors []string    `json:"vectors"`
	Matrix  [][]float64 `json:"matrix"`
}

// StatusSnapshot reports the engine's ingestion position.
type StatusSnapshot struct {
	Records      int64 `json:"records"`
	Users        int   `json:"users"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_capacity"`
	AMIRecords   int64 `json:"ami_records"`
	AMIAutomatic bool  `json:"ami_automatic"`
}

// summaryRow reduces a group-size multiset through
// diversity.SummaryFromCounts into an API row.
func summaryRow(name string, counts []int) DiversityRow {
	s := diversity.SummaryFromCounts(counts)
	return DiversityRow{
		Name:        name,
		Users:       s.Users,
		Distinct:    s.Distinct,
		Unique:      s.Unique,
		EntropyBits: s.EntropyBits,
		Normalized:  s.Normalized,
	}
}

// The State methods below are the one implementation of every read
// payload: Engine reads call them on its live state under its read lock,
// and the shard router builds its cached Views from its merged state. They
// write nothing, so any number of goroutines may read a State that no one
// is writing.

// Views holds every per-read payload of one State, built from a single
// pass of per-vector labels, and the labels themselves, so the AMI matrix
// can be computed later without the State. The shard router caches one
// per state version, and every reader of that version shares its payload
// slices: they must not be modified.
type Views struct {
	Diversity EntropySnapshot
	Clusters  ClusterSnapshot
	Stability StabilitySnapshot
	labels    [][]int32
	ks        []int
}

// Views returns s's Diversity, Clusters and Stability payloads, computed
// from one labeling of every vector's collation graph.
func (s *State) Views() *Views {
	labels, ks := s.labels()
	return &Views{
		Diversity: s.diversity(labels, ks),
		Clusters:  s.clusters(labels, ks),
		Stability: s.Stability(),
		labels:    labels,
		ks:        ks,
	}
}

// AMI computes the pairwise-vector AMI matrix from the views' labels,
// matching Dataset.PairwiseVectorAMI bit for bit over the dense user
// order of the State the views were built from.
func (v *Views) AMI() *AMISnapshot {
	return amiSnapshot(v.Diversity.Records, v.labels, v.ks)
}

// Diversity returns the entropy table: one row per audio vector, the
// Combined row (omitted for an empty population) and one row per surface.
// Every row reduces a group-size multiset through
// diversity.SummaryFromCounts, which sorts it, so the rows are
// bit-identical to the batch analyses whatever the dense ID order.
func (s *State) Diversity() EntropySnapshot {
	labels, ks := s.labels()
	return s.diversity(labels, ks)
}

// diversity is Diversity over s's labels and cluster counts as returned
// by labels.
func (s *State) diversity(labels [][]int32, ks []int) EntropySnapshot {
	snap := EntropySnapshot{Records: s.Records, Users: len(s.Users)}
	for i, v := range vectors.All {
		snap.Rows = append(snap.Rows, summaryRow(v.String(), groupSizes(labels[i], ks[i])))
	}
	if len(s.Users) > 0 {
		combined, k := combine(labels, ks[0])
		snap.Rows = append(snap.Rows, summaryRow("Combined", groupSizes(combined, k)))
	}
	for i, values := range s.Surfs {
		counts := map[string]int{}
		for _, v := range values {
			counts[v]++
		}
		sizes := make([]int, 0, len(counts))
		for _, n := range counts {
			sizes = append(sizes, n)
		}
		snap.Rows = append(snap.Rows, summaryRow(surfaceNames[i], sizes))
	}
	return snap
}

// groupSizes counts the users per label of a dense labeling in [0, k).
func groupSizes(labels []int32, k int) []int {
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// combine folds the per-vector labelings, k0 clusters in the first, into
// one dense label per distinct tuple of them: the grouping of the Combined
// row, with the same group-size multiset as diversity.Combine's tuple
// strings (the batch oracle) but no strings. It returns the labels and
// their count.
func combine(labels [][]int32, k0 int) ([]int32, int) {
	ids := slices.Clone(labels[0])
	k := k0
	for _, next := range labels[1:] {
		tuples := make(map[[2]int32]int32, k)
		for u, l := range next {
			key := [2]int32{ids[u], l}
			id, ok := tuples[key]
			if !ok {
				id = int32(len(tuples))
				tuples[key] = id
			}
			ids[u] = id
		}
		k = len(tuples)
	}
	return ids, k
}

// Clusters returns the per-vector collation statistics.
func (s *State) Clusters() ClusterSnapshot {
	labels, ks := s.labels()
	return s.clusters(labels, ks)
}

// clusters is Clusters over s's labels and cluster counts as returned by
// labels.
func (s *State) clusters(labels [][]int32, ks []int) ClusterSnapshot {
	snap := ClusterSnapshot{Records: s.Records, Users: len(s.Users)}
	for i, v := range vectors.All {
		vs := &s.Vecs[i]
		unique := 0
		for _, n := range groupSizes(labels[i], ks[i]) {
			if n == 1 {
				unique++
			}
		}
		snap.Rows = append(snap.Rows, ClusterRow{
			Vector:       v.String(),
			Users:        vs.Graph.NumUsers(),
			Clusters:     ks[i],
			Unique:       unique,
			Fingerprints: vs.Graph.NumFingerprints(),
			Observations: vs.Obs,
		})
	}
	return snap
}

// Stability returns the Table 1 rows: distinct elementary fingerprints
// per user.
func (s *State) Stability() StabilitySnapshot {
	snap := StabilitySnapshot{Records: s.Records, Users: len(s.Users)}
	for i, v := range vectors.All {
		vs := &s.Vecs[i]
		row := StabilityRow{Vector: v.String()}
		if len(vs.Distinct) > 0 {
			row.Min = vs.Distinct[0]
			sum := 0
			for _, c := range vs.Distinct {
				if c < row.Min {
					row.Min = c
				}
				if c > row.Max {
					row.Max = c
				}
				sum += c
			}
			row.Mean = float64(sum) / float64(len(vs.Distinct))
		}
		snap.Rows = append(snap.Rows, row)
	}
	return snap
}

// labels returns every vector's first-appearance-canonical cluster labels
// over s's dense user order, and each vector's cluster count.
func (s *State) labels() ([][]int32, []int) {
	labels := make([][]int32, len(s.Vecs))
	ks := make([]int, len(s.Vecs))
	for i := range s.Vecs {
		labels[i] = s.Vecs[i].Graph.Labels()
		for _, l := range labels[i] {
			ks[i] = max(ks[i], int(l)+1)
		}
	}
	return labels, ks
}

// amiSnapshot runs cluster.PairwiseAMI over labels and ks as returned by
// State.labels, which the engine reads under its lock and this computes
// outside it, and which Views keeps for the router.
func amiSnapshot(records int64, labels [][]int32, ks []int) *AMISnapshot {
	snap := &AMISnapshot{Records: records, Vectors: make([]string, len(vectors.All))}
	for i, v := range vectors.All {
		snap.Vectors[i] = v.String()
	}
	if len(labels[0]) > 0 {
		// The error is unreachable for a non-empty population; serve no
		// matrix rather than failing the read.
		snap.Matrix, _ = cluster.PairwiseAMI(labels, ks)
	}
	return snap
}

// Diversity returns the live entropy table.
func (e *Engine) Diversity() EntropySnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.Diversity()
}

// Clusters returns the live per-vector collation statistics.
func (e *Engine) Clusters() ClusterSnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.Clusters()
}

// Stability returns the live Table 1 rows.
func (e *Engine) Stability() StabilitySnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.Stability()
}

// AMI returns the most recent pairwise-AMI snapshot, or nil when none has
// been computed yet (empty population or refresh never triggered).
func (e *Engine) AMI() *AMISnapshot {
	e.amiMu.Lock()
	defer e.amiMu.Unlock()
	return e.ami
}

// RefreshAMI recomputes the pairwise-vector AMI matrix from the live state
// and installs it as the served snapshot. It reads the labels under the
// read lock and runs the AMI kernel outside it.
func (e *Engine) RefreshAMI() *AMISnapshot {
	start := time.Now()
	e.mu.RLock()
	records := e.st.Records
	labels, ks := e.st.labels()
	e.mu.RUnlock()

	snap := amiSnapshot(records, labels, ks)
	e.amiMu.Lock()
	e.ami = snap
	e.lastAMI = records
	e.amiMu.Unlock()
	e.met.amiRefreshes.Inc()
	e.met.amiSeconds.Observe(time.Since(start).Seconds())
	return snap
}

// Status reports the engine's ingestion position and queue occupancy.
func (e *Engine) Status() StatusSnapshot {
	e.mu.RLock()
	records := e.st.Records
	users := len(e.st.Users)
	e.mu.RUnlock()
	e.amiMu.Lock()
	amiRecords := e.lastAMI
	e.amiMu.Unlock()
	return StatusSnapshot{
		Records:      records,
		Users:        users,
		QueueDepth:   len(e.queue),
		QueueCap:     e.queueDepth,
		AMIRecords:   amiRecords,
		AMIAutomatic: e.amiEvery > 0,
	}
}
