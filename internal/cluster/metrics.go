// Package cluster implements the clustering-agreement score the paper uses
// throughout §3.3 and Fig. 9: the Adjusted Mutual Information of Vinh, Epps
// & Bailey (ICML 2009), chosen for its behaviour on imbalanced,
// small-cluster partitions. AMIDense over interned labels is the production
// path; AMI over arbitrary labels is its test oracle.
package cluster

import (
	"fmt"
	"math"
	"sync"
)

// Contingency is the joint count table of two clusterings over the same
// items. Labels are arbitrary ints; only equality matters.
type Contingency struct {
	n     int     // number of items
	rows  []int   // marginal counts of clustering U
	cols  []int   // marginal counts of clustering V
	cells [][]int // cells[i][j] = |U_i ∩ V_j|
}

// NewContingency builds the table for label vectors x and y, which must
// have equal, non-zero length.
func NewContingency(x, y []int) (*Contingency, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("cluster: label lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("cluster: empty clusterings")
	}
	xi := indexLabels(x)
	yi := indexLabels(y)
	c := &Contingency{
		n:    len(x),
		rows: make([]int, len(xi)),
		cols: make([]int, len(yi)),
	}
	c.cells = make([][]int, len(xi))
	for i := range c.cells {
		c.cells[i] = make([]int, len(yi))
	}
	for k := range x {
		i, j := xi[x[k]], yi[y[k]]
		c.cells[i][j]++
		c.rows[i]++
		c.cols[j]++
	}
	return c, nil
}

func indexLabels(labels []int) map[int]int {
	idx := make(map[int]int)
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}

// NewContingencyDense builds the table for dense label vectors: x takes
// values in [0, kx), y in [0, ky), with equal, non-zero lengths. It is the
// map-free fast path used by the study layer's interned label vectors
// (collate.IntGraph.Labels); when labels are canonicalized by first
// appearance it produces a table identical to NewContingency over the same
// partitions, so downstream MI/AMI values are bit-identical. The cell
// matrix is one contiguous allocation.
func NewContingencyDense(x, y []int32, kx, ky int) (*Contingency, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("cluster: label lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("cluster: empty clusterings")
	}
	if kx <= 0 || ky <= 0 {
		return nil, fmt.Errorf("cluster: non-positive cluster counts (%d, %d)", kx, ky)
	}
	c := &Contingency{
		n:    len(x),
		rows: make([]int, kx),
		cols: make([]int, ky),
	}
	backing := make([]int, kx*ky)
	c.cells = make([][]int, kx)
	for i := range c.cells {
		c.cells[i] = backing[i*ky : (i+1)*ky]
	}
	for k := range x {
		i, j := x[k], y[k]
		c.cells[i][j]++
		c.rows[i]++
		c.cols[j]++
	}
	return c, nil
}

// MI returns the mutual information between the two clusterings, in nats.
func (c *Contingency) MI() float64 {
	n := float64(c.n)
	var mi float64
	for i, row := range c.cells {
		for j, nij := range row {
			if nij == 0 {
				continue
			}
			pij := float64(nij) / n
			mi += pij * math.Log(n*float64(nij)/(float64(c.rows[i])*float64(c.cols[j])))
		}
	}
	if mi < 0 { // guard against -0 from rounding
		mi = 0
	}
	return mi
}

// EntropyU returns the Shannon entropy (nats) of clustering U's marginal.
func (c *Contingency) EntropyU() float64 { return marginalEntropy(c.rows, c.n) }

// EntropyV returns the Shannon entropy (nats) of clustering V's marginal.
func (c *Contingency) EntropyV() float64 { return marginalEntropy(c.cols, c.n) }

func marginalEntropy(counts []int, n int) float64 {
	var h float64
	fn := float64(n)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log(p)
	}
	if h < 0 {
		h = 0
	}
	return h
}

// ExpectedMI returns E[MI] under the permutation (hypergeometric) model of
// Vinh et al., in nats. Complexity is O(R·C·n̄) over the contingency shape.
func (c *Contingency) ExpectedMI() float64 {
	n := c.n
	lgam := logFactorials(n + 1)
	logN := lgam[n]
	fn := float64(n)
	var emi float64
	for _, ai := range c.rows {
		for _, bj := range c.cols {
			lo := ai + bj - n
			if lo < 1 {
				lo = 1
			}
			hi := ai
			if bj < hi {
				hi = bj
			}
			for nij := lo; nij <= hi; nij++ {
				// term = nij/n · log(n·nij / (ai·bj)) · P(nij | ai, bj, n)
				logP := lgam[ai] + lgam[bj] + lgam[n-ai] + lgam[n-bj] -
					logN - lgam[nij] - lgam[ai-nij] - lgam[bj-nij] - lgam[n-ai-bj+nij]
				info := math.Log(fn*float64(nij)/(float64(ai)*float64(bj))) * float64(nij) / fn
				emi += info * math.Exp(logP)
			}
		}
	}
	return emi
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

// AMI returns the Adjusted Mutual Information of label vectors x and y with
// the arithmetic-mean normalizer:
//
//	AMI = (MI − E[MI]) / (½(H(U)+H(V)) − E[MI])
//
// Two identical trivial clusterings (a single cluster each, or every item a
// singleton in both) score 1 by convention.
func AMI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	return amiOf(c), nil
}

// AMIDense is AMI over dense label vectors (x in [0, kx), y in [0, ky)),
// skipping the label-indexing maps. With first-appearance-canonical labels
// the result is bit-identical to AMI over any relabeling of the same
// partitions.
func AMIDense(x, y []int32, kx, ky int) (float64, error) {
	c, err := NewContingencyDense(x, y, kx, ky)
	if err != nil {
		return 0, err
	}
	return amiOf(c), nil
}

func amiOf(c *Contingency) float64 {
	ru, rv := len(c.rows), len(c.cols)
	if (ru == 1 && rv == 1) || (ru == c.n && rv == c.n) {
		return 1
	}
	mi := c.MI()
	emi := c.ExpectedMI()
	h := (c.EntropyU() + c.EntropyV()) / 2
	den := h - emi
	const eps = 2.220446049250313e-16
	if math.Abs(den) < eps {
		den = math.Copysign(eps, den)
	}
	return (mi - emi) / den
}
