package streaming

import (
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

// summaryRow converts a diversity summary into an API row.
func summaryRow(name string, s diversity.Summary) DiversityRow {
	return DiversityRow{
		Name:        name,
		Users:       s.Users,
		Distinct:    s.Distinct,
		Unique:      s.Unique,
		EntropyBits: s.EntropyBits,
		Normalized:  s.Normalized,
	}
}

// clusterCounts expands a vector's cluster-size histogram into the
// group-size multiset diversity.SummaryFromCounts consumes. Caller holds
// at least a read lock.
func (vs *vecState) clusterCounts() []int {
	cs := make([]int, 0, vs.clusters)
	for size, n := range vs.hist {
		for i := int64(0); i < n; i++ {
			cs = append(cs, int(size))
		}
	}
	return cs
}

// surfaceCounts converts a surface's value→count map into a group-size
// multiset.
func surfaceCounts(m map[string]int64) []int {
	cs := make([]int, 0, len(m))
	for _, n := range m {
		cs = append(cs, int(n))
	}
	return cs
}

// Diversity returns the live entropy table. Audio rows are derived from
// the exact cluster-size histograms; the Combined row re-labels the seven
// graphs (O(users·vectors)); surface rows from the exact value counts.
// Every float goes through diversity.SummaryFromCounts, which is what
// makes the rows bit-identical to the batch analyses.
func (e *Engine) Diversity() EntropySnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := EntropySnapshot{Records: e.records, Users: len(e.userIDs)}
	for i, v := range vectors.All {
		snap.Rows = append(snap.Rows, summaryRow(v.String(),
			diversity.SummaryFromCounts(e.vecs[i].clusterCounts())))
	}
	if combined := e.combinedLabelsLocked(); combined != nil {
		snap.Rows = append(snap.Rows, summaryRow("Combined", diversity.Summarize(combined)))
	}
	for s := 0; s < numSurfaces; s++ {
		snap.Rows = append(snap.Rows, summaryRow(surfaceNames[s],
			diversity.SummaryFromCounts(surfaceCounts(e.counts[s]))))
	}
	return snap
}

// Clusters returns the live per-vector collation statistics.
func (e *Engine) Clusters() ClusterSnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := ClusterSnapshot{Records: e.records, Users: len(e.userIDs)}
	for i, v := range vectors.All {
		vs := e.vecs[i]
		snap.Rows = append(snap.Rows, ClusterRow{
			Vector:       v.String(),
			Users:        vs.g.NumUsers(),
			Clusters:     vs.clusters,
			Unique:       int(vs.hist[1]),
			Fingerprints: vs.g.NumFingerprints(),
			Observations: vs.obsCount,
		})
	}
	return snap
}

// Stability returns the live Table 1 rows.
func (e *Engine) Stability() StabilitySnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := StabilitySnapshot{Records: e.records, Users: len(e.userIDs)}
	for i, v := range vectors.All {
		vs := e.vecs[i]
		row := StabilityRow{Vector: v.String()}
		if len(vs.distinct) > 0 {
			row.Min = len(vs.distinct[0])
			sum := 0
			for _, d := range vs.distinct {
				c := len(d)
				if c < row.Min {
					row.Min = c
				}
				if c > row.Max {
					row.Max = c
				}
				sum += c
			}
			row.Mean = float64(sum) / float64(len(vs.distinct))
		}
		snap.Rows = append(snap.Rows, row)
	}
	return snap
}

// DistinctPerUser returns how many distinct elementary fingerprints each
// user has emitted for v, in dense user order — the live counterpart of
// Dataset.DistinctPerUser.
func (e *Engine) DistinctPerUser(v vectors.ID) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vs := e.vecs[e.vecIdx[v]]
	out := make([]int, len(vs.distinct))
	for i, d := range vs.distinct {
		out[i] = len(d)
	}
	return out
}

// Labels returns the live first-appearance-canonical cluster labels of v,
// the counterpart of Dataset.Labels.
func (e *Engine) Labels(v vectors.ID) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	labels := e.vecs[e.vecIdx[v]].g.Labels()
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

// Users returns the user IDs in dense (first-record) order.
func (e *Engine) Users() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.userIDs...)
}

// combinedLabelsLocked builds the combination tuple per user — nil when
// the population is empty.
func (e *Engine) combinedLabelsLocked() []string {
	if len(e.userIDs) == 0 {
		return nil
	}
	parts := make([][]int32, len(vectors.All))
	for i := range e.vecs {
		parts[i] = e.vecs[i].g.Labels()
	}
	combined, err := diversity.Combine(parts...)
	if err != nil {
		panic(err) // impossible: all parts share the population length
	}
	return combined
}

// AMI returns the most recent pairwise-AMI snapshot, or nil when none has
// been computed yet (empty population or refresh never triggered).
func (e *Engine) AMI() *AMISnapshot {
	e.amiMu.Lock()
	defer e.amiMu.Unlock()
	return e.ami
}

// RefreshAMI recomputes the pairwise-vector AMI matrix from the current
// graphs and installs it as the served snapshot. The computation matches
// Dataset.PairwiseVectorAMI: cluster.PairwiseAMI over
// first-appearance-canonical labels.
func (e *Engine) RefreshAMI() *AMISnapshot {
	start := time.Now()
	e.mu.RLock()
	records := e.records
	users := len(e.userIDs)
	k := len(vectors.All)
	labels := make([][]int32, k)
	ks := make([]int, k)
	for i := range e.vecs {
		labels[i] = e.vecs[i].g.Labels()
		ks[i] = e.vecs[i].clusters
	}
	e.mu.RUnlock()

	snap := &AMISnapshot{Records: records, Vectors: make([]string, k)}
	for i, v := range vectors.All {
		snap.Vectors[i] = v.String()
	}
	if users > 0 {
		// The error is unreachable for a non-empty population; serve no
		// matrix rather than failing the refresh.
		snap.Matrix, _ = cluster.PairwiseAMI(labels, ks)
	}
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
	records := e.records
	users := len(e.userIDs)
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
