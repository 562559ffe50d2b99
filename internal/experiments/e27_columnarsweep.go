package experiments

import (
	"fmt"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// ColumnarSweepPoint is one rung of the columnar robustness map: the same
// scan+filter executed against the row heap and against the columnar
// snapshot, at one predicate selectivity, over a column with one target
// encoding. The robustness claim mirrors E24's: at selective predicates
// zone-map skipping plus compressed pages must win big, and at
// select-everything the columnar path must not cost more than a bounded
// overhead over the heap — with byte-identical results everywhere.
type ColumnarSweepPoint struct {
	Encoding      string  `json:"encoding" gate:"key"`       // encoding of the filtered column: dict | rle | packed
	Sel           float64 `json:"selectivity" gate:"key"`    // nominal fraction of rows the predicate keeps
	HeapUnits     float64 `json:"heap_units" gate:"tol"`     // simulated cost of the heap scan
	ColUnits      float64 `json:"col_units" gate:"tol"`      // simulated cost of the columnar scan
	Ratio         float64 `json:"ratio"`                     // HeapUnits / ColUnits (>1 means columnar won)
	BlocksSkipped int     `json:"blocks_skipped"`            // blocks eliminated by zone maps
	BlocksScanned int     `json:"blocks_scanned"`            // blocks decoded
	Match         bool    `json:"result_exact" gate:"never"` // columnar results byte-identical to heap
}

// columnarSweepSels is the selectivity ladder: needle lookups where zone
// maps should eliminate nearly every block, through full scans where
// nothing can be skipped and only compression helps.
var columnarSweepSels = axis{"sel", []float64{0.01, 0.1, 0.5, 1.0}, nil}

// columnarSweepBlock is the sweep's block size: small enough that a 20k-row
// table yields ~20 blocks, so zone-map skipping has real granularity.
const columnarSweepBlock = 1024

// columnarCard is the distinct-value count for the dict and rle arms; the
// data is clustered (sorted), so each value forms one long run and block
// zone maps carry real information.
const columnarCard = 64

// ColumnarSweep runs the encoding x selectivity sweep and returns the
// report plus the raw points (for rqpbench -sweep columnar-sweep and the
// regression gate).
func ColumnarSweep(scale float64) (*Report, []ColumnarSweepPoint, error) {
	n := scaleInt(20000, scale)

	type arm struct {
		encoding string
		kind     types.Kind
		// val produces the filtered column's value for row i (clustered).
		val func(i int) types.Value
		// threshold produces the predicate constant for a nominal selectivity.
		threshold func(sel float64) types.Value
	}
	strFor := func(code int) string { return fmt.Sprintf("c%04d", code) }
	arms := []arm{
		{
			encoding: "packed", kind: types.KindInt,
			val:       func(i int) types.Value { return types.Int(int64(i)) },
			threshold: func(sel float64) types.Value { return types.Int(int64(sel * float64(n))) },
		},
		{
			encoding: "rle", kind: types.KindInt,
			val: func(i int) types.Value { return types.Int(int64(i * columnarCard / n)) },
			threshold: func(sel float64) types.Value {
				return types.Int(max(1, int64(sel*columnarCard)))
			},
		},
		{
			encoding: "dict", kind: types.KindString,
			val: func(i int) types.Value { return types.Str(strFor(i * columnarCard / n)) },
			threshold: func(sel float64) types.Value {
				return types.Str(strFor(int(max(1, int64(sel*columnarCard)))))
			},
		},
	}
	cats := make([]*catalog.Catalog, len(arms))
	for i, a := range arms {
		cat := catalog.New()
		schema := intCols("k", "v")
		schema[0].Kind = a.kind
		t, err := addTable(cat, "t", schema, n, 16, func(i int) types.Row {
			return types.Row{a.val(i), types.Int(int64(i % 97))}
		})
		if err != nil {
			return nil, nil, err
		}
		cat.BuildColumnar(t, columnarSweepBlock)
		if got := t.Col().ColEncoding(0); got != a.encoding {
			return nil, nil, fmt.Errorf("E27: arm %q encoded as %q", a.encoding, got)
		}
		cats[i] = cat
	}
	encodings := axis{"encoding", []float64{0, 1, 2}, nil} // an index into arms

	floatCanon := 0
	var points []ColumnarSweepPoint
	err := sweep(defaults(), []axis{encodings, columnarSweepSels}, func(k core.Config, at []float64) error {
		a, cat, sel := arms[int(at[0])], cats[int(at[0])], at[1]
		t, _ := cat.Table("t")
		filter := &expr.Bin{
			Op: expr.OpLT,
			L:  &expr.Col{Index: 0, Name: "k", Typ: a.kind},
			R:  &expr.Const{V: a.threshold(sel)},
		}
		if sel >= 1 {
			// Select-everything arm: a tautological k >= min keeps the
			// pushed-conjunct machinery engaged with zero skipping.
			filter.Op = expr.OpGE
			filter.R = &expr.Const{V: minConstFor(a.kind)}
		}
		runs := [2]*run{}
		for i, columnar := range []bool{false, true} {
			s := &plan.ScanNode{Table: t, Alias: "t", Filter: filter, Columnar: columnar}
			s.Out = t.Schema.WithTable("t")
			s.Title = [2]string{"SeqScan(t)", "ColScan(t)"}[i]
			s.Prop = plan.Props{EstRows: float64(t.Heap.NumRows())}
			var err error
			if runs[i], err = execute(cat, k, stmt{root: s}); err != nil {
				return fmt.Errorf("columnar=%v: %w", columnar, err)
			}
		}
		heap, col := runs[0], runs[1]
		points = append(points, ColumnarSweepPoint{
			Encoding: a.encoding, Sel: sel,
			HeapUnits: heap.cost(), ColUnits: col.cost(), Ratio: heap.cost() / col.cost(),
			BlocksSkipped: int(col.ctx.ColBlocksSkipped), BlocksScanned: int(col.ctx.ColBlocksScanned),
			Match: same(&floatCanon, heap, col),
		})
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("E27 %w", err)
	}

	r := newReport("E27", "columnar encoding x selectivity sweep (zone-map skipping map)")
	r.Printf("%8s %6s %12s %12s %7s %8s %8s %6s",
		"encoding", "sel", "heap_units", "col_units", "ratio", "skipped", "scanned", "exact")
	allMatch, selectiveWin, fullScanBounded := true, true, true
	for _, p := range points {
		r.Printf("%8s %6.2f %12.1f %12.1f %6.2fx %8d %8d %6v",
			p.Encoding, p.Sel, p.HeapUnits, p.ColUnits, p.Ratio, p.BlocksSkipped, p.BlocksScanned, p.Match)
		allMatch = allMatch && p.Match
		if p.Sel <= 0.1 && p.Ratio < 1.5 {
			selectiveWin = false
		}
		if p.Sel >= 1 && p.ColUnits > 1.05*p.HeapUnits {
			fullScanBounded = false
		}
	}
	r.Set("points", float64(len(points)))
	r.Set("float_canon_cells", float64(floatCanon))
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "selective_1_5x", selectiveWin)
	setReportBool(r, "fullscan_bounded", fullScanBounded)
	return r, points, nil
}

// minConstFor returns a constant at or below every value the sweep stores
// in a column of the given kind.
func minConstFor(k types.Kind) types.Value {
	if k == types.KindString {
		return types.Str("")
	}
	return types.Int(0)
}
