package opt

import (
	"math"

	"rqp/internal/storage"
)

// Cost formulas over the simulated machine. All formulas take input
// cardinalities (rows) and return cost units consistent with storage.Clock,
// so that estimated and measured costs are directly comparable — the
// prerequisite for the report's "cost calculation accuracy" tests.

func pages(rows float64) float64 {
	return math.Ceil(math.Max(rows, 0) / float64(storage.PageRows))
}

func (o *Optimizer) costSeqScan(tablePages, tableRows float64) float64 {
	return tablePages*o.CM.SeqPageRead + tableRows*o.CM.RowCPU
}

// costColScan prices a columnar scan the way the executor charges it. w's
// zone checks decide which blocks are read; a block read costs the encoded
// pages of the columns the scan reads (w.pages, every block assumed to keep a
// row); the pushed conjuncts run most selective first (sels, ascending), each
// over the rows its predecessors left alive, starting from the w.rows of the
// blocks read; outRows pay per-row CPU. The snapshot's delta — deltaPages of
// the heap's tablePages changed or added since the build — is read from the
// heap, at costSeqScan's rates.
func (o *Optimizer) costColScan(w colScanWork, outRows float64, sels []float64, deltaPages, tablePages, tableRows float64) float64 {
	c := w.zoneChecks*o.CM.ZoneCheck + w.pages*o.CM.SeqPageRead + outRows*o.CM.RowCPU
	alive := w.rows
	for _, s := range sels {
		c += alive * o.CM.FilterTest
		alive *= s
	}
	if deltaPages > 0 {
		c += o.costSeqScan(deltaPages, tableRows*deltaPages/tablePages)
	}
	return c
}

// costIndexScan: descend the tree, walk matching leaves, fetch each match
// from the heap by RID (random I/O) and evaluate residuals.
func (o *Optimizer) costIndexScan(height float64, matchRows, tableRows float64) float64 {
	leafPages := pages(matchRows)
	return height*o.CM.RandPageRead + leafPages*o.CM.SeqPageRead +
		matchRows*o.CM.RandPageRead + matchRows*o.CM.RowCPU
}

// costHashJoin builds on the right input, probes with the left. Building
// (allocate + insert) costs double a probe, which is what makes the
// smaller input the preferred build side. Exceeding the memory budget
// triggers grace partitioning: write and re-read both inputs once.
func (o *Optimizer) costHashJoin(leftRows, rightRows, outRows float64) float64 {
	c := rightRows*2*o.CM.HashProbe + leftRows*o.CM.HashProbe + outRows*o.CM.RowCPU
	if rightRows > float64(o.Opt.MemBudgetRows) {
		spillPages := pages(leftRows) + pages(rightRows)
		c += spillPages * (o.CM.PageWrite + o.CM.SeqPageRead)
	}
	return c
}

// costSort is n·log2(n) comparisons plus run spill I/O when over budget.
func (o *Optimizer) costSort(rows float64) float64 {
	if rows < 2 {
		return rows * o.CM.Compare
	}
	c := rows * math.Log2(rows) * o.CM.Compare
	if rows > float64(o.Opt.MemBudgetRows) {
		c += pages(rows) * (o.CM.PageWrite + o.CM.SeqPageRead)
	}
	return c
}

// costMergeJoin assumes unsorted inputs (explicit sorts included).
func (o *Optimizer) costMergeJoin(leftRows, rightRows, outRows float64) float64 {
	return o.costSort(leftRows) + o.costSort(rightRows) +
		(leftRows+rightRows)*o.CM.Compare + outRows*o.CM.RowCPU
}

// costNLJoin is the quadratic fallback; the inner is materialized once.
func (o *Optimizer) costNLJoin(leftRows, rightRows, outRows float64) float64 {
	return leftRows*rightRows*o.CM.Compare + rightRows*o.CM.RowCPU + outRows*o.CM.RowCPU
}

// costIndexNLJoin probes a persistent index once per outer row.
func (o *Optimizer) costIndexNLJoin(leftRows, matchesPerRow, height, outRows float64) float64 {
	perProbe := height*o.CM.RandPageRead + matchesPerRow*o.CM.RandPageRead
	return leftRows*perProbe + outRows*o.CM.RowCPU
}

// costGJoin models the generalized join: it behaves like an in-memory hash
// join while the smaller input fits, and degrades smoothly into
// grant-sized run partitioning (never into the quadratic NL cliff) when it
// does not. The robustness benefit is the *absence* of the bad branch,
// bought with a small constant overhead.
func (o *Optimizer) costGJoin(leftRows, rightRows, outRows float64) float64 {
	small, large := leftRows, rightRows
	if small > large {
		small, large = large, small
	}
	const overhead = 1.15
	c := overhead * (small*o.CM.HashProbe + large*o.CM.HashProbe + outRows*o.CM.RowCPU)
	if small > float64(o.Opt.MemBudgetRows) {
		c += (pages(small) + pages(large)) * (o.CM.PageWrite + o.CM.SeqPageRead)
	}
	return c
}

func (o *Optimizer) costHashAgg(inRows, groups float64) float64 {
	return inRows*o.CM.HashProbe + groups*o.CM.RowCPU
}
