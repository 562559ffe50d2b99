// Adaptive re-optimization walkthrough: a star-schema query with a fully
// redundant correlated predicate (the report's "war story") is planned with
// a ~100x cardinality underestimate. The classic engine commits to an
// index-nested-loop plan that is catastrophic at the true cardinality; the
// POP policy checks the risky input, detects the violation and repairs the
// remainder of the plan mid-query.
package main

import (
	"fmt"
	"log"

	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/workload"
)

func main() {
	cat, err := workload.BuildStar(workload.DefaultStar())
	if err != nil {
		log.Fatal(err)
	}
	query := `SELECT dim1.cat, COUNT(*) FROM fact, dim1, dim2
		WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id
		AND fact.attr = 37 AND fact.pseudo = 111
		GROUP BY dim1.cat`

	for _, setup := range []struct {
		name string
		cfg  core.Config
	}{
		{"classic (static plan)", core.DefaultConfig()},
		{"POP (checked re-optimization)", func() core.Config {
			c := core.DefaultConfig()
			c.Policy = core.PolicyPOP
			return c
		}()},
		{"correlation-aware statistics", func() core.Config {
			c := core.DefaultConfig()
			c.Mode = opt.Correlated
			return c
		}()},
	} {
		eng := core.Attach(cat, setup.cfg)
		if setup.cfg.Mode == opt.Correlated {
			// The correlated estimator needs column-group statistics.
			fact, _ := cat.Table("fact")
			if err := cat.AnalyzeGroup(fact, []string{"attr", "pseudo"}); err != nil {
				log.Fatal(err)
			}
		}
		res, err := eng.Exec(query)
		if err != nil {
			log.Fatalf("%s: %v", setup.name, err)
		}
		fmt.Printf("%-32s cost=%8.1f units  reopts=%d  groups=%d\n",
			setup.name, res.Cost, res.Reopts, len(res.Rows))
	}
	fmt.Println("\nThe classic run pays for the mistaken plan; POP repairs it at run")
	fmt.Println("time; correlation-aware statistics avoid the mistake at compile time.")
}
