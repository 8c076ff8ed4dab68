package cluster

import (
	"fmt"
	"math"
)

// The oracle: a dense joint count table over arbitrary int labels, with
// MI summed cell by cell in row-major order and E[MI] evaluated for every
// (row, column) cell. PairwiseAMI must match its MI and entropies bit for
// bit and its E[MI] up to summation order.

// Contingency is the joint count table of two clusterings over the same
// items. Labels are arbitrary ints; only equality matters. Rows and
// columns are indexed by first appearance.
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
// Vinh et al., in nats, summing every term in cell order. Complexity is
// O(R·C·n̄) over the contingency shape.
func (c *Contingency) ExpectedMI() float64 {
	var emi float64
	c.expectedMITerms(func(term float64) { emi += term })
	return emi
}

// expectedMITerms hands each term of E[MI] to visit, cell by cell in
// row-major order and by ascending nij within a cell.
func (c *Contingency) expectedMITerms(visit func(term float64)) {
	n := c.n
	lgam := logFactorials(n + 1)
	logN := lgam[n]
	fn := float64(n)
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
				visit(info * math.Exp(logP))
			}
		}
	}
}

// AMI is the table's Adjusted Mutual Information with the arithmetic-mean
// normalizer; two identical trivial clusterings score 1.
func (c *Contingency) AMI() float64 {
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

// AMI returns the oracle's Adjusted Mutual Information of label vectors x
// and y.
func AMI(x, y []int) (float64, error) {
	c, err := NewContingency(x, y)
	if err != nil {
		return 0, err
	}
	return c.AMI(), nil
}
