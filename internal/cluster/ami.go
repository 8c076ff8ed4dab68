// Package cluster implements the clustering-agreement score the paper uses
// throughout §3.3 and Fig. 9: the Adjusted Mutual Information of Vinh, Epps
// & Bailey (ICML 2009), chosen for its behaviour on imbalanced,
// small-cluster partitions. PairwiseAMI scores every pair of a set of
// dense labelings in one call and is the package's only entry point; the
// dense contingency table with its per-cell E[MI] loop survives only as
// the test oracle.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// PairwiseAMI returns the symmetric matrix of Adjusted Mutual Information
// between every pair of the k labelings, with the arithmetic-mean
// normalizer:
//
//	AMI = (MI − E[MI]) / (½(H(U)+H(V)) − E[MI])
//
// labels[i] assigns each of the same n > 0 items a cluster in [0, ks[i]).
// The diagonal is 1, and so is a pair of identical trivial clusterings
// (one cluster each, or every item a singleton in both).
//
// E[MI] under the permutation model depends only on the two clusterings'
// cluster sizes, so each labeling is reduced once to its sorted histogram
// of sizes a with multiplicities m_a, and the hypergeometric sum S(a,b)
// of each distinct size pair is computed once and shared by every pair
// of labelings in the call: E[MI] = Σ_a Σ_b m_a·m_b·S(a,b). MI is summed
// over the non-zero cells of the contingency table in row-major order,
// found by bucketing one labeling's items by the other's label, so no
// R×C table is built. Nothing outlives the call.
func PairwiseAMI(labels [][]int32, ks []int) ([][]float64, error) {
	p, err := newPairwise(labels, ks)
	if err != nil {
		return nil, err
	}
	k := len(labels)
	out := make([][]float64, k)
	cells := make([]float64, k*k)
	for j := range out {
		out[j] = cells[j*k : (j+1)*k]
		out[j][j] = 1
		for i := 0; i < j; i++ {
			out[i][j] = p.ami(i, j)
			out[j][i] = out[i][j]
		}
	}
	return out, nil
}

// pairwise is the state of one PairwiseAMI call.
type pairwise struct {
	n    int
	ls   []labeling
	lgam []float64 // ln k! for k in [0, n]
	// sizes lists every distinct cluster size of the call's labelings in
	// the order first met; memo[x*len(sizes)+y] caches S(sizes[x],
	// sizes[y]), NaN until first needed.
	sizes []int32
	memo  []float64
	// Scratch for mi: bucket holds one labeling's items' column labels
	// grouped by row, cursor the rows' fill positions.
	bucket []int32
	cursor []int32
}

// labeling is one clustering reduced for the call.
type labeling struct {
	labels   []int32
	counts   []int32 // cluster size by label
	start    []int32 // start[c]: where label c's items begin in order
	order    []int32 // items grouped by label, labels ascending
	sizes    []int32 // indices into pairwise.sizes of the distinct sizes, ascending by size
	mults    []int32 // mults[x]: how many clusters have size sizes[x]
	entropy  float64 // nats
	clusters int     // non-empty clusters
}

func newPairwise(labels [][]int32, ks []int) (*pairwise, error) {
	if len(ks) != len(labels) {
		return nil, fmt.Errorf("cluster: %d labelings but %d cluster counts", len(labels), len(ks))
	}
	p := &pairwise{ls: make([]labeling, len(labels))}
	if len(labels) == 0 {
		return p, nil
	}
	n := len(labels[0])
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty clusterings")
	}
	maxK := 0
	scratch := 3*n + 1 // bucket, the size list and the size marks
	for i, ls := range labels {
		if len(ls) != n {
			return nil, fmt.Errorf("cluster: label lengths differ (%d vs %d)", len(ls), n)
		}
		if ks[i] <= 0 {
			return nil, fmt.Errorf("cluster: non-positive cluster count %d", ks[i])
		}
		maxK = max(maxK, ks[i])
		scratch += n + 4*ks[i]
	}
	p.n = n
	p.lgam = logFactorials(n)
	buf := make([]int32, scratch+maxK)
	take := func(m int) []int32 {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}
	p.bucket, p.cursor, p.sizes = take(n), take(maxK), take(n)[:0]
	// marks[a] is one more than size a's index in p.sizes, 0 until some
	// labeling has a cluster of size a.
	marks := take(n + 1)
	for i, ls := range labels {
		l := &p.ls[i]
		l.labels, l.counts, l.start, l.order = ls, take(ks[i]), take(ks[i]), take(n)
		for _, c := range ls {
			if c < 0 || int(c) >= ks[i] {
				return nil, fmt.Errorf("cluster: label %d outside [0, %d)", c, ks[i])
			}
			l.counts[c]++
		}
		// Row offsets, and the entropy (nats) summed in label order.
		fn := float64(n)
		var off int32
		for c, m := range l.counts {
			l.start[c] = off
			off += m
			if m > 0 {
				q := float64(m) / fn
				l.entropy -= q * math.Log(q)
			}
		}
		if l.entropy < 0 {
			l.entropy = 0
		}
		fill := p.cursor[:ks[i]]
		copy(fill, l.start)
		for t, c := range ls {
			l.order[fill[c]] = int32(t)
			fill[c]++
		}
		// The histogram: sort a copy of the counts, then run-length it in
		// place, size indices at the front and multiplicities behind.
		hist := take(2 * ks[i])
		sorted := hist[:ks[i]]
		copy(sorted, l.counts)
		slices.Sort(sorted)
		d := 0
		for x := 0; x < len(sorted); {
			a, y := sorted[x], x+1
			for y < len(sorted) && sorted[y] == a {
				y++
			}
			if a > 0 {
				if marks[a] == 0 {
					p.sizes = append(p.sizes, a)
					marks[a] = int32(len(p.sizes))
				}
				hist[d], hist[ks[i]+d] = marks[a]-1, int32(y-x)
				l.clusters += y - x
				d++
			}
			x = y
		}
		l.sizes, l.mults = hist[:d], hist[ks[i]:ks[i]+d]
	}
	p.memo = make([]float64, len(p.sizes)*len(p.sizes))
	for i := range p.memo {
		p.memo[i] = math.NaN()
	}
	return p, nil
}

// ami scores labeling i against labeling j.
func (p *pairwise) ami(i, j int) float64 {
	u, v := &p.ls[i], &p.ls[j]
	if (u.clusters == 1 && v.clusters == 1) || (u.clusters == p.n && v.clusters == p.n) {
		return 1
	}
	return adjusted(p.mi(i, j), p.expectedMI(i, j), u.entropy, v.entropy)
}

// adjusted returns (MI − E[MI]) / (½(H(U)+H(V)) − E[MI]), keeping the
// denominator at least one ulp of 1 away from zero.
func adjusted(mi, emi, hu, hv float64) float64 {
	den := (hu+hv)/2 - emi
	const eps = 2.220446049250313e-16
	if math.Abs(den) < eps {
		den = math.Copysign(eps, den)
	}
	return (mi - emi) / den
}

// mi returns the mutual information (nats) between labeling i, the rows of
// the contingency table, and labeling j, its columns. It walks j's items
// in label order and files each item's column under its row, so every
// row's column labels come out ascending; a run of equal columns is one
// non-zero cell, and cells are summed in row-major order.
func (p *pairwise) mi(i, j int) float64 {
	u, v := &p.ls[i], &p.ls[j]
	fill := p.cursor[:len(u.start)]
	copy(fill, u.start)
	for _, t := range v.order {
		r := u.labels[t]
		p.bucket[fill[r]] = v.labels[t]
		fill[r]++
	}
	n := float64(p.n)
	var mi float64
	for r, m := range u.counts {
		ai := float64(m)
		cols := p.bucket[u.start[r]:fill[r]]
		for x := 0; x < len(cols); {
			y := x + 1
			for y < len(cols) && cols[y] == cols[x] {
				y++
			}
			nij := float64(y - x)
			pij := nij / n
			mi += pij * math.Log(n*nij/(ai*float64(v.counts[cols[x]])))
			x = y
		}
	}
	if mi < 0 { // guard against -0 from rounding
		mi = 0
	}
	return mi
}

// expectedMI returns E[MI] (nats) of labelings i and j under the
// permutation (hypergeometric) model of Vinh et al.
func (p *pairwise) expectedMI(i, j int) float64 {
	u, v := &p.ls[i], &p.ls[j]
	d := len(p.sizes)
	var emi float64
	for x, a := range u.sizes {
		memo := p.memo[int(a)*d : (int(a)+1)*d]
		for y, b := range v.sizes {
			s := memo[b]
			if math.IsNaN(s) {
				s = p.cellSum(int(p.sizes[a]), int(p.sizes[b]))
				memo[b] = s
			}
			emi += float64(int(u.mults[x])*int(v.mults[y])) * s
		}
	}
	return emi
}

// cellSum returns S(ai, bj), the expected contribution to MI of one cell
// whose row has ai items and whose column has bj: Σ over the feasible
// cell counts nij of nij/n · log(n·nij / (ai·bj)) · P(nij | ai, bj, n).
func (p *pairwise) cellSum(ai, bj int) float64 {
	n, lgam := p.n, p.lgam
	logN := lgam[n]
	fn := float64(n)
	lo := max(ai+bj-n, 1)
	hi := min(ai, bj)
	var s float64
	for nij := lo; nij <= hi; nij++ {
		logP := lgam[ai] + lgam[bj] + lgam[n-ai] + lgam[n-bj] -
			logN - lgam[nij] - lgam[ai-nij] - lgam[bj-nij] - lgam[n-ai-bj+nij]
		info := math.Log(fn*float64(nij)/(float64(ai)*float64(bj))) * float64(nij) / fn
		s += info * math.Exp(logP)
	}
	return s
}

// logFactorials returns a read-only slice with lgam[k] = ln k! for k in
// [0, n]. The table is shared and grown on demand: every AMI call over the
// same population size reuses it instead of recomputing n logarithms, which
// matters when the agreement sweeps evaluate thousands of pairs. Entries
// are computed incrementally (lg[k] = lg[k-1] + ln k), so a longer table's
// prefix is bit-identical to a freshly built shorter one.
func logFactorials(n int) []float64 {
	lgamMu.RLock()
	lg := lgamTable
	lgamMu.RUnlock()
	if len(lg) > n {
		return lg[:n+1]
	}
	lgamMu.Lock()
	defer lgamMu.Unlock()
	for len(lgamTable) <= n {
		k := len(lgamTable)
		var prev float64
		if k >= 2 {
			prev = lgamTable[k-1] + math.Log(float64(k))
		}
		// Append never reuses the old backing array once it reallocates, so
		// slices returned earlier stay valid and immutable.
		lgamTable = append(lgamTable, prev)
	}
	return lgamTable[:n+1]
}

var (
	lgamMu    sync.RWMutex
	lgamTable []float64
)
