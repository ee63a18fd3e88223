package relmath_test

import (
	"fmt"

	"sdnavail/internal/relmath"
)

// The paper's equation (1): k-of-n block availability.
func ExampleKofN() {
	// A "2 of 3" quorum of elements with availability 0.9995.
	fmt.Printf("%.7f\n", relmath.KofN(2, 3, 0.9995))
	// Output:
	// 0.9999993
}
