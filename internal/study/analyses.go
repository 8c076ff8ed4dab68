package study

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collate"
	"repro/internal/diversity"
	"repro/internal/vectors"
)

// ---------------------------------------------------------------------------
// Table 1 — stability: distinct fingerprints per user over k iterations.

// StabilityRow is one column of the paper's Table 1.
type StabilityRow struct {
	Vector vectors.ID
	Min    int
	Max    int
	Mean   float64
}

// DistinctPerUser returns, for vector v, how many distinct elementary
// fingerprints each user emitted across all iterations.
func (ds *Dataset) DistinctPerUser(v vectors.ID) []int {
	obs := ds.Obs[v]
	out := make([]int, len(obs))
	for ui, row := range obs {
		seen := make(map[string]struct{}, 4)
		for _, h := range row {
			seen[h] = struct{}{}
		}
		out[ui] = len(seen)
	}
	return out
}

// Table1 computes the per-vector Min/Max/Mean of distinct fingerprints per
// user (paper Table 1).
func (ds *Dataset) Table1() []StabilityRow {
	rows := make([]StabilityRow, 0, len(vectors.All))
	for _, v := range vectors.All {
		counts := ds.DistinctPerUser(v)
		row := StabilityRow{Vector: v, Min: counts[0], Max: counts[0]}
		sum := 0
		for _, c := range counts {
			if c < row.Min {
				row.Min = c
			}
			if c > row.Max {
				row.Max = c
			}
			sum += c
		}
		row.Mean = float64(sum) / float64(len(counts))
		rows = append(rows, row)
	}
	return rows
}

// Figure3 returns the bar/CDF data of the distinct-fingerprint distribution
// for one vector (the paper plots Hybrid).
func (ds *Dataset) Figure3(v vectors.ID) diversity.Histogram {
	return diversity.NewHistogram(ds.DistinctPerUser(v))
}

// ---------------------------------------------------------------------------
// Figure 5 — cluster agreement across disjoint iteration subsets.

// AgreementPoint is one (vector, subset size) mean-AMI measurement.
type AgreementPoint struct {
	Vector  vectors.ID
	S       int
	MeanAMI float64
	Pairs   int
}

// sweepItem is one (vector, subset size) cell of a §3.3 sweep.
type sweepItem struct {
	v vectors.ID
	s int
}

// sweepItems enumerates the (vector, s) cells with at least two disjoint
// subsets, in the serial output order (vectors.All major, sValues minor).
func (ds *Dataset) sweepItems(sValues []int) []sweepItem {
	items := make([]sweepItem, 0, len(vectors.All)*len(sValues))
	for _, v := range vectors.All {
		for _, s := range sValues {
			if s > 0 && s <= ds.Iterations && ds.Iterations/s >= 2 {
				items = append(items, sweepItem{v, s})
			}
		}
	}
	return items
}

// AgreementScores computes, for each vector and subset size s, the mean
// pairwise AMI between the user clusterings produced by the ⌊k/s⌋ disjoint
// iteration subsets (paper §3.3, Fig. 5). Each cell scores its labelings
// with one cluster.PairwiseAMI call. Cells are evaluated concurrently
// (bounded by Dataset.Parallelism) over the interned observation index;
// each cell writes a pre-sized slot, so the output is bit-identical to a
// serial run.
func (ds *Dataset) AgreementScores(sValues []int) ([]AgreementPoint, error) {
	ix := ds.Index()
	items := ds.sweepItems(sValues)
	sp := ds.span("cluster-agreement")
	sp.SetAttr("cells", len(items))
	defer sp.End()
	mSweepCells.Add(int64(len(items)))
	out := make([]AgreementPoint, len(items))
	errs := make([]error, len(items))
	forEach(len(items), ds.parallelism(), func(n int) {
		v, s := items[n].v, items[n].s
		subs := subsetIterations(ds.Iterations, s)
		labelings := make([][]int32, len(subs))
		ks := make([]int, len(subs))
		for i, iters := range subs {
			g := intGraphOf(ix, len(ds.Users), v, iters)
			labelings[i] = g.Labels()
			for _, l := range labelings[i] {
				if int(l) >= ks[i] {
					ks[i] = int(l) + 1
				}
			}
		}
		m, err := cluster.PairwiseAMI(labelings, ks)
		if err != nil {
			errs[n] = fmt.Errorf("study: AMI(%v, s=%d): %w", v, s, err)
			return
		}
		var sum float64
		pairs := 0
		for i := range m {
			for j := i + 1; j < len(m); j++ {
				sum += m[i][j]
				pairs++
			}
		}
		out[n] = AgreementPoint{Vector: v, S: s, MeanAMI: sum / float64(pairs), Pairs: pairs}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 6 — fingerprint match scores.

// MatchScoreRow reports, for one vector and subset size, the fraction of
// held-out user subsets that point uniquely back to the user's training
// cluster.
type MatchScoreRow struct {
	Vector vectors.ID
	S      int
	Score  float64
	Trials int
}

// MatchScores implements §3.3's match-score measurement: the first size-s
// subset trains a collation graph; every remaining subset of every user is
// matched against it without insertion. Each (vector, s) cell trains and
// matches over interned IDs and runs concurrently (bounded by
// Dataset.Parallelism); results land in pre-sized slots, bit-identical to
// a serial run.
func (ds *Dataset) MatchScores(sValues []int) []MatchScoreRow {
	ix := ds.Index()
	items := ds.sweepItems(sValues)
	sp := ds.span("match-score")
	sp.SetAttr("cells", len(items))
	defer sp.End()
	mSweepCells.Add(int64(len(items)))
	out := make([]MatchScoreRow, len(items))
	forEach(len(items), ds.parallelism(), func(n int) {
		v, s := items[n].v, items[n].s
		subs := subsetIterations(ds.Iterations, s)
		training := intGraphOf(ix, len(ds.Users), v, subs[0])
		obsIDs := ix.ObsIDs(v)
		ids := make([]int32, s)
		success, trials := 0, 0
		for ui := range ds.Users {
			want := training.ClusterOf(int32(ui))
			for _, iters := range subs[1:] {
				for k, it := range iters {
					ids[k] = obsIDs[ui][it]
				}
				got, res := training.Match(ids)
				trials++
				if res == collate.MatchUnique && got == want {
					success++
				}
			}
		}
		out[n] = MatchScoreRow{
			Vector: v, S: s,
			Score:  float64(success) / float64(trials),
			Trials: trials,
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Tables 2 & 3 — diversity.

// DiversityRow is one row of the paper's diversity tables.
type DiversityRow struct {
	Name string
	diversity.Summary
}

// CombinedLabels returns each user's tuple of collated cluster labels
// across all seven vectors — the "Combined" row of Table 2.
func (ds *Dataset) CombinedLabels() []string {
	parts := make([][]int, len(vectors.All))
	for i, v := range vectors.All {
		parts[i] = ds.Labels(v)
	}
	combined, err := diversity.Combine(parts...)
	if err != nil {
		panic(err) // impossible: all slices share Devices length
	}
	return combined
}

// Table2 computes the diversity of the 7 collated audio vectors plus their
// combination (paper Table 2).
func (ds *Dataset) Table2() []DiversityRow {
	sp := ds.span("diversity")
	defer sp.End()
	rows := make([]DiversityRow, 0, len(vectors.All)+1)
	for _, v := range vectors.All {
		rows = append(rows, ds.diversityRow(v))
	}
	rows = append(rows, DiversityRow{Name: "Combined", Summary: diversity.Summarize(ds.CombinedLabels())})
	return rows
}

// diversityRow is collated vector v's row of Tables 2 and 4.
func (ds *Dataset) diversityRow(v vectors.ID) DiversityRow {
	d := ds.dense(v)
	sum := diversity.Summarize(d.labels)
	// Distinct/Unique per the paper are cluster counts in the graph.
	sum.Distinct = d.k
	sum.Unique = d.unique
	return DiversityRow{Name: v.String(), Summary: sum}
}

// Table3 computes the diversity of the Canvas, Fonts and User-Agent vectors
// (paper Table 3).
func (ds *Dataset) Table3() []DiversityRow {
	sp := ds.span("diversity")
	defer sp.End()
	return []DiversityRow{
		{Name: "Canvas", Summary: diversity.Summarize(ds.Canvas)},
		{Name: "Fonts", Summary: diversity.Summarize(ds.Fonts)},
		{Name: "User-Agent", Summary: diversity.Summarize(ds.UA)},
	}
}

// ---------------------------------------------------------------------------
// §4 — User-Agent span analysis (the W3C contradiction).

// UASpanResult quantifies how often one UA string hides several audio
// fingerprints, refuting the W3C claim that Web Audio merely reveals
// UA-derivable information.
type UASpanResult struct {
	// Vector is the audio vector whose clusters were compared.
	Vector vectors.ID
	// MultiUserUAs is the number of UA strings shared by ≥ 2 users.
	MultiUserUAs int
	// MultiUserUAUsers is how many users those UAs cover.
	MultiUserUAUsers int
	// SpanningUAs is how many multi-user UAs span ≥ 2 audio clusters.
	SpanningUAs int
	// SpanningUAUsers is how many users the spanning UAs cover.
	SpanningUAUsers int
	// MaxClustersPerUA is the largest number of audio clusters observed
	// under a single UA string.
	MaxClustersPerUA int
	// UAsWith5Plus counts UAs associated with ≥ 5 distinct clusters.
	UAsWith5Plus int
}

// UASpan computes the §4 analysis for vector v.
func (ds *Dataset) UASpan(v vectors.ID) UASpanResult {
	labels := ds.Labels(v)
	byUA := make(map[string][]int)
	for i := range ds.Users {
		byUA[ds.UA[i]] = append(byUA[ds.UA[i]], labels[i])
	}
	res := UASpanResult{Vector: v}
	for _, ls := range byUA {
		if len(ls) < 2 {
			continue
		}
		res.MultiUserUAs++
		res.MultiUserUAUsers += len(ls)
		distinct := make(map[int]struct{}, len(ls))
		for _, l := range ls {
			distinct[l] = struct{}{}
		}
		if len(distinct) >= 2 {
			res.SpanningUAs++
			res.SpanningUAUsers += len(ls)
		}
		if len(distinct) >= 5 {
			res.UAsWith5Plus++
		}
		if len(distinct) > res.MaxClustersPerUA {
			res.MaxClustersPerUA = len(distinct)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// §4 — additive value of audio fingerprinting.

// AdditiveResult quantifies the entropy a fingerprinting surface gains when
// the combined audio fingerprint is appended to it.
type AdditiveResult struct {
	Name         string
	Base         diversity.Summary
	WithAudio    diversity.Summary
	NormIncrease float64 // (e'_norm − e_norm) / e_norm
}

// AdditiveValue measures the combined-audio uplift over a base surface
// (per-user values aligned with Users).
func (ds *Dataset) AdditiveValue(name string, base []string) AdditiveResult {
	audio := ds.CombinedLabels()
	joint, err := diversity.Combine(base, audio)
	if err != nil {
		panic(err)
	}
	b := diversity.Summarize(base)
	w := diversity.Summarize(joint)
	res := AdditiveResult{Name: name, Base: b, WithAudio: w}
	if b.Normalized > 0 {
		res.NormIncrease = (w.Normalized - b.Normalized) / b.Normalized
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 9 — cross-vector cluster agreement heatmap.

// PairwiseVectorAMI returns the AMI between the collated clusterings of all
// seven vectors, in vectors.All order, over the cached interned labelings.
func (ds *Dataset) PairwiseVectorAMI() ([][]float64, error) {
	sp := ds.span("cluster-agreement")
	defer sp.End()
	labels := make([][]int32, len(vectors.All))
	ks := make([]int, len(vectors.All))
	for i, v := range vectors.All {
		d := ds.dense(v)
		labels[i], ks[i] = d.labels, d.k
	}
	return cluster.PairwiseAMI(labels, ks)
}

// ---------------------------------------------------------------------------
// §5 — ranking robustness across user subsets.

// RankingResult reports the e_norm ranking of the 9 vectors (7 audio
// collated + Canvas + Fonts + UA) per user subset.
type RankingResult struct {
	// Rankings[i] is subset i's vector names, most diverse first.
	Rankings [][]string
	// Consistent is true when every subset produced the same order.
	Consistent bool
}

// SubsetRanking divides users into `parts` disjoint equal subsets, computes
// each fingerprinting vector's normalized entropy within each subset, and
// checks whether the induced rankings agree (paper §5). Audio vectors are
// scored over their cached interned labelings (no per-call string
// conversion) and the (part, vector) entropy cells run concurrently,
// bounded by Dataset.Parallelism; entropies use deterministic summation
// order, so results are identical across parallelism settings and runs.
func (ds *Dataset) SubsetRanking(parts int) RankingResult {
	sp := ds.span("diversity")
	sp.SetAttr("parts", parts)
	defer sp.End()
	type namedEntropy struct {
		name    string
		entropy func(lo, hi int) float64
	}
	all := make([]namedEntropy, 0, len(vectors.All)+3)
	for _, v := range vectors.All {
		labels := ds.dense(v).labels
		all = append(all, namedEntropy{v.String(), func(lo, hi int) float64 {
			return diversity.NormalizedEntropy(labels[lo:hi])
		}})
	}
	for _, nv := range []struct {
		name   string
		values []string
	}{{"Canvas", ds.Canvas}, {"Fonts", ds.Fonts}, {"User-Agent", ds.UA}} {
		values := nv.values
		all = append(all, namedEntropy{nv.name, func(lo, hi int) float64 {
			return diversity.NormalizedEntropy(values[lo:hi])
		}})
	}

	n := len(ds.Users)
	entropies := make([][]float64, parts)
	for p := range entropies {
		entropies[p] = make([]float64, len(all))
	}
	forEach(parts*len(all), ds.parallelism(), func(cell int) {
		p, vi := cell/len(all), cell%len(all)
		lo, hi := p*n/parts, (p+1)*n/parts
		entropies[p][vi] = all[vi].entropy(lo, hi)
	})

	res := RankingResult{Consistent: true}
	for p := 0; p < parts; p++ {
		type scored struct {
			name string
			e    float64
		}
		scores := make([]scored, 0, len(all))
		for vi, nv := range all {
			scores = append(scores, scored{nv.name, entropies[p][vi]})
		}
		sort.SliceStable(scores, func(i, j int) bool { return scores[i].e > scores[j].e })
		rank := make([]string, len(scores))
		for i, s := range scores {
			rank[i] = s.name
		}
		res.Rankings = append(res.Rankings, rank)
		if p > 0 {
			for i := range rank {
				if rank[i] != res.Rankings[0][i] {
					res.Consistent = false
				}
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Tables 4 & 5 — the Math-JS follow-up (run on a follow-up dataset).

// Table4 computes the diversity of DC, FFT, Hybrid (collated) and Math-JS
// on this dataset (the paper runs it on the 528-user follow-up population).
func (ds *Dataset) Table4() []DiversityRow {
	rows := make([]DiversityRow, 0, 4)
	for _, v := range []vectors.ID{vectors.DC, vectors.FFT, vectors.Hybrid} {
		rows = append(rows, ds.diversityRow(v))
	}
	rows = append(rows, DiversityRow{
		Name:    "Math JS",
		Summary: diversity.Summarize(ds.MathJS),
	})
	return rows
}

// Table5Row compares distinct DC and Math-JS fingerprints on one platform.
type Table5Row struct {
	Platform string
	Users    int
	DC       int
	MathJS   int
}

// Table5 computes the per-platform DC vs Math-JS comparison, for platforms
// with at least minUsers participants, ordered by descending user count.
func (ds *Dataset) Table5(minUsers int) []Table5Row {
	plats := ds.Platforms
	mjs := ds.MathJS
	dcLabels := ds.Labels(vectors.DC)
	dc := make([]string, len(dcLabels))
	for i, l := range dcLabels {
		dc[i] = fmt.Sprint(l)
	}
	sizes := diversity.GroupSizes(plats)
	perDC, _ := diversity.DistinctPerGroup(plats, dc)
	perMJS, _ := diversity.DistinctPerGroup(plats, mjs)

	var rows []Table5Row
	for p, n := range sizes {
		if n < minUsers {
			continue
		}
		rows = append(rows, Table5Row{Platform: p, Users: n, DC: perDC[p], MathJS: perMJS[p]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Users != rows[j].Users {
			return rows[i].Users > rows[j].Users
		}
		return rows[i].Platform < rows[j].Platform
	})
	return rows
}

// ---------------------------------------------------------------------------
// Ablation — naive exact-hash identity vs graph collation.

// NaiveMatchScores is the ablation baseline for MatchScores: the
// fingerprinter keys each user on the single elementary fingerprint from
// the first training iteration and recognizes a return visit only when the
// held-out subset contains that exact hash. No collation graph. For the
// perfectly stable DC vector this matches the graph method; for every
// fickle vector it shows why the paper's §3.2 collation is necessary.
func (ds *Dataset) NaiveMatchScores(sValues []int) []MatchScoreRow {
	var out []MatchScoreRow
	for _, v := range vectors.All {
		for _, s := range sValues {
			subs := subsetIterations(ds.Iterations, s)
			if len(subs) < 2 {
				continue
			}
			success, trials := 0, 0
			for ui := range ds.Users {
				key := ds.Obs[v][ui][subs[0][0]]
				for _, iters := range subs[1:] {
					trials++
					for _, it := range iters {
						if ds.Obs[v][ui][it] == key {
							success++
							break
						}
					}
				}
			}
			out = append(out, MatchScoreRow{
				Vector: v, S: s,
				Score:  float64(success) / float64(trials),
				Trials: trials,
			})
		}
	}
	return out
}
