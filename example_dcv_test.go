package ps2_test

import (
	"fmt"

	ps2 "repro"
)

// Example_dcv mirrors the paper's Figure 3/4 code: a weight DCV is
// allocated, three auxiliary vectors are derived (co-located, costing no
// communication), and element-wise operators run server-side. The
// "inefficient writing" from the paper's Figure 4 — a dot between two
// independently created DCVs — still computes correctly but is not
// co-located.
func Example_dcv() {
	engine := ps2.NewEngine(ps2.DefaultOptions())
	engine.Run(func(p *ps2.Proc) {
		// Every operator returns an error (ps2.ErrServerDown when a shard
		// stays unreachable); this example treats any error as fatal.
		check := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		driver := engine.Driver()
		// val weight = DCV.dense(dim, 4)
		weight, err := engine.DCV.Dense(p, 1000, 4)
		check(err)
		// val velocity = DCV.derive(weight).fill(0.0)  (and friends)
		velocity, err := weight.Derive()
		check(err)
		check(velocity.TryFill(p, driver, 0))
		gradient, err := weight.Derive()
		check(err)
		check(gradient.TryFill(p, driver, 1))
		fmt.Println("derived co-located:", weight.Colocated(velocity))

		// Server-side element-wise computation across co-located DCVs.
		check(velocity.TryAxpy(p, driver, 2, gradient))
		sum, err := velocity.TrySum(p, driver)
		check(err)
		fmt.Println("velocity sum after axpy:", sum)

		// Figure 4's "inefficient writing": independent DCVs are not
		// co-located; dot still works via a server-to-server shuffle.
		other, err := engine.DCV.Dense(p, 1000, 1)
		check(err)
		check(other.TryFill(p, driver, 3))
		fmt.Println("independent co-located:", weight.Colocated(other))
		dot, err := gradient.TryDot(p, driver, other)
		check(err)
		fmt.Println("dot across placements:", dot)
	})
	// Output:
	// derived co-located: true
	// velocity sum after axpy: 2000
	// independent co-located: false
	// dot across placements: 3000
}
