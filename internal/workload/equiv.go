package workload

// EquivPack is one set of semantically equivalent query spellings. The
// Dagstuhl "benchmarking robustness" group's requirement: a robust query
// processor spends identical resources on every member of a pack.
type EquivPack struct {
	Name    string
	Queries []string
}

// EquivalencePacks returns the rewrite packs over the TPC-H-lite schema,
// following the session's examples (commuted FROM lists, negation
// rewrites, IN vs OR vs range, BETWEEN vs comparisons, literals vs
// parameters are exercised separately).
func EquivalencePacks() []EquivPack {
	return []EquivPack{
		{
			Name: "from-order",
			Queries: []string{
				"SELECT COUNT(*) FROM customer, orders WHERE customer.c_custkey = orders.o_custkey",
				"SELECT COUNT(*) FROM orders, customer WHERE customer.c_custkey = orders.o_custkey",
				"SELECT COUNT(*) FROM orders, customer WHERE orders.o_custkey = customer.c_custkey",
			},
		},
		{
			Name: "negation",
			Queries: []string{
				"SELECT COUNT(*) FROM lineitem WHERE NOT (l_shipdate <> DATE(9000))",
				"SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE(9000)",
				"SELECT COUNT(*) FROM lineitem WHERE DATE(9000) = l_shipdate",
			},
		},
		{
			Name: "between-vs-comparisons",
			Queries: []string{
				"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 20",
				"SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20",
				"SELECT COUNT(*) FROM lineitem WHERE NOT (l_quantity < 10 OR l_quantity > 20)",
			},
		},
		{
			Name: "in-vs-eq",
			Queries: []string{
				"SELECT COUNT(*) FROM lineitem WHERE l_returnflag IN ('R')",
				"SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 'R'",
			},
		},
		{
			Name: "double-negation",
			Queries: []string{
				"SELECT COUNT(*) FROM part WHERE NOT (NOT (p_size > 25))",
				"SELECT COUNT(*) FROM part WHERE p_size > 25",
			},
		},
		{
			Name: "demorgan",
			Queries: []string{
				"SELECT COUNT(*) FROM part WHERE NOT (p_size < 10 AND p_brand = 3)",
				"SELECT COUNT(*) FROM part WHERE p_size >= 10 OR p_brand <> 3",
			},
		},
		{
			Name: "redundant-true",
			Queries: []string{
				"SELECT COUNT(*) FROM supplier WHERE s_nationkey = 4 AND 1 = 1",
				"SELECT COUNT(*) FROM supplier WHERE s_nationkey = 4",
			},
		},
	}
}
