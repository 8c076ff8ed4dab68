package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/study"
	"repro/internal/vectors"
)

// Experiment identifiers, one per table/figure in the paper's evaluation.
const (
	ExpTable1   = "table1"   // stability: distinct fingerprints per user
	ExpFigure3  = "figure3"  // distribution of distinct Hybrid fingerprints
	ExpFigure5  = "figure5"  // cluster agreement vs subset size
	ExpTable6   = "table6"   // fingerprint match scores
	ExpTable2   = "table2"   // diversity of audio vectors
	ExpTable3   = "table3"   // diversity of Canvas/Fonts/UA
	ExpUASpan   = "uaspan"   // §4 W3C refutation
	ExpAdditive = "additive" // §4 additive value
	ExpFigure9  = "figure9"  // cross-vector AMI heatmap
	ExpRanking  = "ranking"  // §5 subset-ranking robustness
	ExpTable4   = "table4"   // follow-up diversity incl. Math-JS
	ExpTable5   = "table5"   // follow-up per-platform DC vs Math-JS
)

// MainExperiments lists the experiments computed from the main dataset.
var MainExperiments = []string{
	ExpTable1, ExpFigure3, ExpFigure5, ExpTable6, ExpTable2, ExpTable3,
	ExpUASpan, ExpAdditive, ExpFigure9, ExpRanking,
}

// FollowUpExperiments lists the experiments computed from the follow-up
// dataset.
var FollowUpExperiments = []string{ExpTable4, ExpTable5}

// expPhase maps an experiment id to the pipeline phase its span is named
// after (the span-naming convention is "phase/detail"; see DESIGN.md §8).
func expPhase(id string) string {
	switch id {
	case ExpTable2, ExpTable3, ExpTable4, ExpAdditive, "anonymity":
		return "diversity"
	case ExpFigure5, ExpFigure9:
		return "cluster-agreement"
	case ExpTable6, ExpTable5, "ablation":
		return "match-score"
	case ExpRanking:
		return "ranking"
	default:
		return "analyze"
	}
}

// withExperimentSpan runs fn under a phase-named span and routes the
// dataset's analysis-stage spans (collation, sweeps) beneath it, so a
// trace shows which experiment triggered which collation.
func withExperimentSpan(ctx context.Context, ds *study.Dataset, id string, fn func() error) error {
	if obs.SpanFromContext(ctx) == nil {
		return fn() // untraced
	}
	_, sp := obs.Start(ctx, expPhase(id)+"/"+id)
	defer sp.End()
	prev := ds.Tracer()
	ds.SetTracer(sp)
	defer ds.SetTracer(prev)
	return fn()
}

// WriteExperiment renders one experiment from the dataset to w.
func WriteExperiment(w io.Writer, ds *study.Dataset, id string) error {
	return WriteExperimentContext(context.Background(), w, ds, id)
}

// WriteExperimentContext renders one experiment, recording its stage
// timing under the context's trace span (no-op tracing otherwise).
func WriteExperimentContext(ctx context.Context, w io.Writer, ds *study.Dataset, id string) error {
	return withExperimentSpan(ctx, ds, id, func() error {
		return writeExperiment(w, ds, id)
	})
}

func writeExperiment(w io.Writer, ds *study.Dataset, id string) error {
	switch id {
	case ExpTable1:
		tb := report.NewTable("Table 1 — # distinct fingerprints across iterations per user",
			"Vector", "Min", "Max", "Mean")
		for _, r := range ds.Table1() {
			tb.AddRow(r.Vector.String(), r.Min, r.Max, r.Mean)
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpFigure3:
		h := ds.Figure3(vectors.Hybrid)
		labels, freqs := h.SortedBins()
		_, cdf := h.CDF()
		_, err := io.WriteString(w, report.Histogram(
			"Figure 3 — distribution of distinct Hybrid (DC+FFT) fingerprints",
			labels, freqs, cdf, 50))
		return err

	case ExpFigure5:
		sValues := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 15}
		points, err := ds.AgreementScores(sValues)
		if err != nil {
			return err
		}
		series := map[string][]float64{}
		var xs []int
		seen := map[int]bool{}
		for _, p := range points {
			series[p.Vector.String()] = append(series[p.Vector.String()], p.MeanAMI)
			if !seen[p.S] {
				seen[p.S] = true
				xs = append(xs, p.S)
			}
		}
		order := make([]string, len(vectors.All))
		for i, v := range vectors.All {
			order[i] = v.String()
		}
		_, err = io.WriteString(w, report.Series(
			"Figure 5 — mean cluster agreement (AMI) vs subset size s",
			xs, series, order))
		return err

	case ExpTable6:
		// Subset sizes larger than half the iteration count leave no
		// held-out subset; render those columns as n/a.
		var sValues []int
		headers := []string{"Vector"}
		for _, s := range []int{15, 10, 3} {
			headers = append(headers, fmt.Sprintf("s=%d", s))
			if s <= ds.Iterations/2 {
				sValues = append(sValues, s)
			}
		}
		tb := report.NewTable("Table 6 — fingerprint match scores", headers...)
		rows := ds.MatchScores(sValues)
		byVec := map[vectors.ID]map[int]float64{}
		for _, r := range rows {
			if byVec[r.Vector] == nil {
				byVec[r.Vector] = map[int]float64{}
			}
			byVec[r.Vector][r.S] = r.Score
		}
		for _, v := range vectors.All {
			m := byVec[v]
			cells := []any{v.String()}
			for _, s := range []int{15, 10, 3} {
				if score, ok := m[s]; ok {
					cells = append(cells, fmt.Sprintf("%.4f", score))
				} else {
					cells = append(cells, "n/a")
				}
			}
			tb.AddRow(cells...)
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpTable2:
		tb := report.NewTable("Table 2 — diversity of audio fingerprints",
			"Vector", "Distinct", "Unique", "Entropy", "e_norm")
		for _, r := range ds.Table2() {
			tb.AddRow(r.Name, r.Distinct, r.Unique, r.EntropyBits, r.Normalized)
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpTable3:
		tb := report.NewTable("Table 3 — diversity of other vectors",
			"Vector", "Distinct", "Unique", "Entropy", "e_norm")
		for _, r := range ds.Table3() {
			tb.AddRow(r.Name, r.Distinct, r.Unique, r.EntropyBits, r.Normalized)
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpUASpan:
		res := ds.UASpan(vectors.MergedSignals)
		_, err := fmt.Fprintf(w, `§4 User-Agent span analysis (vector: %s)
multi-user UA strings:           %d (covering %d users)
UAs spanning ≥2 audio clusters:  %d (covering %d users)
UAs with ≥5 audio clusters:      %d
max audio clusters under one UA: %d
⇒ one UA string frequently hides many audio fingerprints, contradicting the
  W3C claim that Web Audio only reveals UA-derivable information.
`, res.Vector, res.MultiUserUAs, res.MultiUserUAUsers, res.SpanningUAs,
			res.SpanningUAUsers, res.UAsWith5Plus, res.MaxClustersPerUA)
		return err

	case ExpAdditive:
		tb := report.NewTable("§4 additive value of audio fingerprinting",
			"Base vector", "Base entropy", "With audio", "Δ e_norm")
		for _, r := range []study.AdditiveResult{
			ds.AdditiveValue("Canvas", ds.Canvas),
			ds.AdditiveValue("User-Agent", ds.UA),
		} {
			tb.AddRow(r.Name, r.Base.EntropyBits, r.WithAudio.EntropyBits,
				fmt.Sprintf("+%.1f%%", 100*r.NormIncrease))
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpFigure9:
		m, err := ds.PairwiseVectorAMI()
		if err != nil {
			return err
		}
		labels := make([]string, len(vectors.All))
		for i, v := range vectors.All {
			labels[i] = v.String()
		}
		_, err = io.WriteString(w, report.Heatmap(
			"Figure 9 — cluster agreement (AMI) between audio vectors", labels, m))
		return err

	case ExpRanking:
		res := ds.SubsetRanking(4)
		fmt.Fprintf(w, "§5 e_norm ranking across 4 disjoint user subsets (consistent: %t)\n", res.Consistent)
		for i, r := range res.Rankings {
			fmt.Fprintf(w, "subset %d: %v\n", i, r)
		}
		return nil

	case ExpTable4:
		tb := report.NewTable("Table 4 — comparison with Math JS fingerprinting",
			"Vector", "Distinct", "Unique", "Entropy", "e_norm")
		for _, r := range ds.Table4() {
			tb.AddRow(r.Name, r.Distinct, r.Unique, r.EntropyBits, r.Normalized)
		}
		_, err := tb.WriteTo(w)
		return err

	case ExpTable5:
		tb := report.NewTable("Table 5 — distinct DC vs Math JS fingerprints per platform",
			"Platform", "#Users", "DC", "MathJS")
		for _, r := range ds.Table5(10) {
			tb.AddRow(r.Platform, r.Users, r.DC, r.MathJS)
		}
		_, err := tb.WriteTo(w)
		return err
	}
	return fmt.Errorf("core: unknown experiment %q", id)
}

// WriteAllExperiments renders the full evaluation: the ten main-study
// artifacts from main, then the two follow-up artifacts from followUp (if
// non-nil).
func WriteAllExperiments(w io.Writer, main, followUp *study.Dataset) error {
	return WriteAllExperimentsContext(context.Background(), w, main, followUp)
}

// WriteAllExperimentsContext is WriteAllExperiments with per-experiment
// stage tracing under the context's span.
func WriteAllExperimentsContext(ctx context.Context, w io.Writer, main, followUp *study.Dataset) error {
	for _, id := range MainExperiments {
		if err := WriteExperimentContext(ctx, w, main, id); err != nil {
			return fmt.Errorf("core: experiment %s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	if followUp != nil {
		for _, id := range FollowUpExperiments {
			if err := WriteExperimentContext(ctx, w, followUp, id); err != nil {
				return fmt.Errorf("core: experiment %s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// WriteAblation renders the §3.2 ablation: match scores with graph
// collation versus the naive exact-hash identity baseline, at subset size s.
func WriteAblation(w io.Writer, ds *study.Dataset, s int) error {
	return WriteAblationContext(context.Background(), w, ds, s)
}

// WriteAblationContext is WriteAblation with stage tracing.
func WriteAblationContext(ctx context.Context, w io.Writer, ds *study.Dataset, s int) error {
	return withExperimentSpan(ctx, ds, "ablation", func() error {
		return writeAblation(w, ds, s)
	})
}

func writeAblation(w io.Writer, ds *study.Dataset, s int) error {
	graph := ds.MatchScores([]int{s})
	naive := ds.NaiveMatchScores([]int{s})
	byVec := func(rows []study.MatchScoreRow) map[vectors.ID]float64 {
		m := map[vectors.ID]float64{}
		for _, r := range rows {
			m[r.Vector] = r.Score
		}
		return m
	}
	g, n := byVec(graph), byVec(naive)
	tb := report.NewTable(
		fmt.Sprintf("Ablation — graph collation vs naive exact-hash identity (s=%d)", s),
		"Vector", "Graph", "Naive", "Δ")
	for _, v := range vectors.All {
		tb.AddRow(v.String(), fmt.Sprintf("%.4f", g[v]), fmt.Sprintf("%.4f", n[v]),
			fmt.Sprintf("%+.4f", g[v]-n[v]))
	}
	_, err := tb.WriteTo(w)
	return err
}

// WriteEvolution renders the §6 longitudinal comparison: the same campaign
// simulated against the 2016-era (pre-standardization) audio stacks and the
// 2021-era stacks. The paper computed normalized entropies of 0.38 for the
// 2016 study [9] and 0.244 (Hybrid) / 0.175 (DC) for 2021, attributing the
// decline to engines standardizing their math paths.
func WriteEvolution(w io.Writer, seed int64, users, iterations int) error {
	return WriteEvolutionContext(context.Background(), w, seed, users, iterations)
}

// WriteEvolutionContext is WriteEvolution with stage tracing: each era's run
// records its "study.run" span under the context's span. Each era renders
// only the two vectors the comparison prints, DC and Hybrid.
func WriteEvolutionContext(ctx context.Context, w io.Writer, seed int64, users, iterations int) error {
	run := func(era string) ([]study.DiversityRow, error) {
		return study.Diversity(ctx, study.Config{
			Seed: seed, Users: users, Iterations: iterations, Era: era,
		}, vectors.DC, vectors.Hybrid)
	}
	modern, err := run("")
	if err != nil {
		return err
	}
	vintage, err := run("2016")
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("§6 evolution — normalized entropy by era (%d users)", users),
		"Vector", "2016-era", "2021-era", "paper (2016→2021)")
	paper := []string{"0.24 → 0.175", "0.38 → 0.244"}
	for i, r := range vintage {
		tb.AddRow(r.Name, fmt.Sprintf("%.3f", r.Normalized), fmt.Sprintf("%.3f", modern[i].Normalized), paper[i])
	}
	if _, err := tb.WriteTo(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w,
		"⇒ the audio fingerprinting surface shrinks between eras, matching the\n"+
			"  paper's finding that engine math standardization reduced entropy.")
	return err
}

// WriteAnonymity renders the anonymity-set analysis: for each fingerprint
// surface, what fraction of users hide in crowds of at least k identical
// fingerprints. This is the privacy-side reading of the diversity tables:
// audio's low diversity is large anonymity sets; Canvas/Fonts shred them.
func WriteAnonymity(w io.Writer, ds *study.Dataset) error {
	return WriteAnonymityContext(context.Background(), w, ds)
}

// WriteAnonymityContext is WriteAnonymity with stage tracing.
func WriteAnonymityContext(ctx context.Context, w io.Writer, ds *study.Dataset) error {
	return withExperimentSpan(ctx, ds, "anonymity", func() error {
		return writeAnonymity(w, ds)
	})
}

func writeAnonymity(w io.Writer, ds *study.Dataset) error {
	type surface struct {
		name   string
		values []string
	}
	surfaces := []surface{
		{"Audio (combined)", ds.CombinedLabels()},
		{"Canvas", ds.Canvas},
		{"User-Agent", ds.UA},
		{"Fonts", ds.Fonts},
	}
	ks := []int{1, 2, 5, 10, 50, 100}
	headers := []string{"Surface"}
	for _, k := range ks {
		headers = append(headers, fmt.Sprintf("≥%d", k))
	}
	tb := report.NewTable(
		fmt.Sprintf("Anonymity sets — fraction of %d users in crowds of ≥ k", len(ds.Users)),
		headers...)
	for _, s := range surfaces {
		counts := map[string]int{}
		for _, v := range s.values {
			counts[v]++
		}
		row := []any{s.name}
		for _, k := range ks {
			users := 0
			for _, c := range counts {
				if c >= k {
					users += c
				}
			}
			row = append(row, fmt.Sprintf("%.3f", float64(users)/float64(len(s.values))))
		}
		tb.AddRow(row...)
	}
	_, err := tb.WriteTo(w)
	return err
}

// WriteDemographics renders the §2.3 participant-pool breakdown: OS and
// browser shares and the top countries, the sanity panel for any simulated
// or collected population.
func WriteDemographics(w io.Writer, ds *study.Dataset) error {
	return WriteDemographicsContext(context.Background(), w, ds)
}

// WriteDemographicsContext is WriteDemographics with pipeline tracing.
func WriteDemographicsContext(ctx context.Context, w io.Writer, ds *study.Dataset) error {
	return withExperimentSpan(ctx, ds, "demographics", func() error {
		return writeDemographics(w, ds)
	})
}

func writeDemographics(w io.Writer, ds *study.Dataset) error {
	osCount := map[string]int{}
	browserCount := map[string]int{}
	countryCount := map[string]int{}
	for i := range ds.Users {
		parts := strings.SplitN(ds.Platforms[i], "/", 2)
		if len(parts) == 2 {
			osCount[parts[0]]++
			browserCount[parts[1]]++
		}
		if ds.Devices != nil {
			countryCount[ds.Devices[i].Country]++
		}
	}
	n := float64(len(ds.Users))
	writeShare := func(title string, m map[string]int) error {
		tb := report.NewTable(title, "Value", "Users", "Share")
		type kv struct {
			k string
			v int
		}
		rows := make([]kv, 0, len(m))
		for k, v := range m {
			rows = append(rows, kv{k, v})
		}
		// Tie-break by name: rows come out of map iteration, and a
		// count-only sort would order equal counts nondeterministically.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].k < rows[j].k
		})
		for _, r := range rows {
			tb.AddRow(r.k, r.v, fmt.Sprintf("%.1f%%", 100*float64(r.v)/n))
		}
		_, err := tb.WriteTo(w)
		return err
	}
	if err := writeShare(fmt.Sprintf("Participants — OS families (%d users)", len(ds.Users)), osCount); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := writeShare("Participants — browsers", browserCount); err != nil {
		return err
	}
	if len(countryCount) > 0 {
		fmt.Fprintln(w)
		// Top 10 countries only; the tail is long (57 countries).
		type kv struct {
			k string
			v int
		}
		rows := make([]kv, 0, len(countryCount))
		for k, v := range countryCount {
			rows = append(rows, kv{k, v})
		}
		// Same name tie-break as writeShare: the top-10 cutoff must not
		// depend on map iteration order when counts tie at the boundary.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].k < rows[j].k
		})
		tb := report.NewTable(fmt.Sprintf("Participants — top countries (%d total)", len(countryCount)),
			"Country", "Users")
		for i := 0; i < len(rows) && i < 10; i++ {
			tb.AddRow(rows[i].k, rows[i].v)
		}
		if _, err := tb.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
