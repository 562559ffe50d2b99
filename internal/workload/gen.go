// Package workload provides the data and query generators behind every
// experiment: scale-free "lite" versions of TPC-H, TPC-C and the hybrid
// TPC-CH, a star schema with controllable predicate correlation (the
// black-hat / POP workload), parameterized range-query families, and the
// equivalent-query rewrite packs of the Dagstuhl benchmarking session.
package workload

import (
	"fmt"
	"math/rand"

	"rqp/internal/catalog"
	"rqp/internal/types"
)

// Load builds the database a command's -db flag names: "tpch" (TPC-H-lite at
// scale, seed 1), "star" (DefaultStar, whatever the scale) or "" (an empty
// catalog).
func Load(name string, scale float64) (*catalog.Catalog, error) {
	switch name {
	case "":
		return catalog.New(), nil
	case "tpch":
		return BuildTPCH(TPCHConfig{Scale: scale, Seed: 1})
	case "star":
		return BuildStar(DefaultStar())
	}
	return nil, fmt.Errorf("unknown database %q", name)
}

// Gen wraps a seeded random source so every workload is reproducible.
type Gen struct {
	R *rand.Rand
}

// NewGen returns a deterministic generator.
func NewGen(seed int64) *Gen {
	return &Gen{R: rand.New(rand.NewSource(seed))}
}

// Uniform returns an integer in [0, n).
func (g *Gen) Uniform(n int64) int64 { return g.R.Int63n(n) }

// ZipfSeq returns a reusable Zipf sampler (cheaper than per-call).
func (g *Gen) ZipfSeq(n uint64, s float64) func() int64 {
	if s <= 1 {
		s = 1.01
	}
	z := rand.NewZipf(g.R, s, 1, n-1)
	return func() int64 { return int64(z.Uint64()) }
}

// Name produces a short deterministic pseudo-name.
func (g *Gen) Name(prefix string, id int64) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := []byte(prefix)
	v := id
	for i := 0; i < 4; i++ {
		b = append(b, letters[v%26])
		v = v/26 + 7
	}
	return string(b)
}

// IntRow is a convenience row builder.
func IntRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.Int(v)
	}
	return r
}
