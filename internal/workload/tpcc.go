package workload

import (
	"fmt"

	"rqp/internal/catalog"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// TPCCConfig sizes the TPC-C-lite order-entry database.
type TPCCConfig struct {
	Warehouses int
	Districts  int // per warehouse
	Customers  int // per district
	Items      int
	Seed       int64
}

// DefaultTPCC is a laptop-scale configuration.
func DefaultTPCC() TPCCConfig {
	return TPCCConfig{Warehouses: 2, Districts: 5, Customers: 30, Items: 200, Seed: 7}
}

// TPCC wraps the loaded database with transaction drivers. Together with
// the TPC-H-lite query suite over the same orders data it forms the
// TPC-CH-lite hybrid workload (Kemper et al.'s mixed OLTP+BI benchmark).
type TPCC struct {
	Cfg TPCCConfig
	Cat *catalog.Catalog
	g   *Gen

	warehouse *catalog.Table
	district  *catalog.Table
	customer  *catalog.Table
	stock     *catalog.Table
	orders    *catalog.Table
	orderline *catalog.Table

	nextOrder int64
	row       types.Row // the transactions' heap reads decode into it
}

// BuildTPCC creates and loads the schema.
func BuildTPCC(cfg TPCCConfig) (*TPCC, error) {
	t := &TPCC{Cfg: cfg, Cat: catalog.New(), g: NewGen(cfg.Seed)}
	var err error
	t.warehouse, err = t.Cat.CreateTable("warehouse", types.Schema{
		{Name: "w_id", Kind: types.KindInt},
		{Name: "w_ytd", Kind: types.KindFloat},
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Warehouses; w++ {
		t.Cat.Insert(nil, t.warehouse, types.Row{types.Int(int64(w)), types.Float(0)})
	}
	t.district, err = t.Cat.CreateTable("district", types.Schema{
		{Name: "d_id", Kind: types.KindInt},
		{Name: "d_w_id", Kind: types.KindInt},
		{Name: "d_next_o", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			t.Cat.Insert(nil, t.district, IntRow(int64(d), int64(w), 0))
		}
	}
	t.customer, err = t.Cat.CreateTable("tpcc_customer", types.Schema{
		{Name: "c_id", Kind: types.KindInt},
		{Name: "c_d_id", Kind: types.KindInt},
		{Name: "c_w_id", Kind: types.KindInt},
		{Name: "c_balance", Kind: types.KindFloat},
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			for c := 0; c < cfg.Customers; c++ {
				t.Cat.Insert(nil, t.customer, types.Row{
					types.Int(int64(c)), types.Int(int64(d)), types.Int(int64(w)), types.Float(0),
				})
			}
		}
	}
	t.stock, err = t.Cat.CreateTable("stock", types.Schema{
		{Name: "s_i_id", Kind: types.KindInt},
		{Name: "s_w_id", Kind: types.KindInt},
		{Name: "s_quantity", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Warehouses; w++ {
		for i := 0; i < cfg.Items; i++ {
			t.Cat.Insert(nil, t.stock, IntRow(int64(i), int64(w), 100))
		}
	}
	t.orders, err = t.Cat.CreateTable("tpcc_orders", types.Schema{
		{Name: "o_id", Kind: types.KindInt},
		{Name: "o_d_id", Kind: types.KindInt},
		{Name: "o_w_id", Kind: types.KindInt},
		{Name: "o_c_id", Kind: types.KindInt},
		{Name: "o_lines", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	t.orderline, err = t.Cat.CreateTable("orderline", types.Schema{
		{Name: "ol_o_id", Kind: types.KindInt},
		{Name: "ol_i_id", Kind: types.KindInt},
		{Name: "ol_qty", Kind: types.KindInt},
		{Name: "ol_amount", Kind: types.KindFloat},
	})
	if err != nil {
		return nil, err
	}
	// Index support for the OLTP access paths.
	if _, err := t.Cat.CreateIndex(nil, "stock", "stock_pk", []string{"s_i_id", "s_w_id"}, true); err != nil {
		return nil, err
	}
	if _, err := t.Cat.CreateIndex(nil, "orderline", "ol_order", []string{"ol_o_id"}, false); err != nil {
		return nil, err
	}
	return t, nil
}

// NewOrder executes one order-entry transaction: pick a customer, insert an
// order with 5–15 lines, decrement stock. All page traffic is charged to clk.
func (t *TPCC) NewOrder(clk *storage.Clock) error {
	w := t.g.Uniform(int64(t.Cfg.Warehouses))
	d := t.g.Uniform(int64(t.Cfg.Districts))
	c := t.g.Uniform(int64(t.Cfg.Customers))
	lines := 5 + t.g.Uniform(11)
	oid := t.nextOrder
	t.nextOrder++
	t.Cat.Insert(clk, t.orders, IntRow(oid, d, w, c, lines))
	for l := int64(0); l < lines; l++ {
		item := t.g.Uniform(int64(t.Cfg.Items))
		qty := 1 + t.g.Uniform(10)
		t.Cat.Insert(clk, t.orderline, types.Row{
			types.Int(oid), types.Int(item), types.Int(qty),
			types.Float(float64(qty) * 9.99),
		})
		// Decrement stock via the index.
		if err := t.decrementStock(clk, item, w, qty); err != nil {
			return err
		}
	}
	return nil
}

func (t *TPCC) decrementStock(clk *storage.Clock, item, w, qty int64) error {
	ix := t.stock.IndexNamed("stock_pk")
	if ix == nil {
		return fmt.Errorf("workload: stock index missing")
	}
	var rid storage.RID = -1
	ix.Tree.Lookup(clk, []types.Value{types.Int(item), types.Int(w)}, func(r storage.RID) bool {
		rid = r
		return false
	})
	if rid < 0 {
		return fmt.Errorf("workload: stock (%d,%d) missing", item, w)
	}
	var ok bool
	if t.row, ok = t.stock.Heap.Get(clk, rid, t.row[:0]); !ok {
		return fmt.Errorf("workload: stock row vanished")
	}
	q := t.row[2].I - qty
	if q < 10 {
		q += 91
	}
	t.row[2] = types.Int(q)
	t.stock.Heap.Update(clk, rid, t.row)
	return nil
}

// Payment executes one payment transaction: update a customer balance and
// the warehouse year-to-date total.
func (t *TPCC) Payment(clk *storage.Clock) error {
	w := t.g.Uniform(int64(t.Cfg.Warehouses))
	d := t.g.Uniform(int64(t.Cfg.Districts))
	c := t.g.Uniform(int64(t.Cfg.Customers))
	amount := float64(1+t.g.Uniform(5000)) / 100
	found := false
	var target storage.RID
	t.customer.Heap.Scan(clk, func(rid storage.RID, r types.Row) bool {
		if r[0].I == c && r[1].I == d && r[2].I == w {
			target, t.row, found = rid, append(t.row[:0], r...), true
			return false
		}
		return true
	})
	if !found {
		return fmt.Errorf("workload: customer (%d,%d,%d) missing", c, d, w)
	}
	t.row[3] = types.Float(t.row[3].AsFloat() + amount)
	t.customer.Heap.Update(clk, target, t.row)
	return nil
}
