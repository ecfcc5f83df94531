// Package deadexport is the declaring side of the deadexport corpus;
// package deadexportuse is its one client.
package deadexport

import "fmt"

// Used is called by the client.
func Used() int { return helper() + Temp(1).Kelvin() }

// helper is used inside the package, which is all an unexported
// declaration needs.
func helper() int { return 1 }

func unusedHelper() {} // want `deadexport\.unusedHelper has no non-test use: delete it`

func Dead() {} // want `deadexport\.Dead has no non-test use: delete it`

// Recursive calls only itself: a declaration's use of itself does not
// count.
func Recursive(n int) int { // want `deadexport\.Recursive has no non-test use: delete it`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// OnlyTested is called by deadexport_test.go alone.
func OnlyTested() {} // want `deadexport\.OnlyTested has no non-test use: delete it`

// Temp is converted to by the client.
type Temp int

// String is in fmt.Stringer's method set, so it counts as used.
func (t Temp) String() string { return fmt.Sprint(int(t)) }

// Kelvin is used inside the package only.
func (t Temp) Kelvin() int { return int(t) + 273 } // want `deadexport\.Temp\.Kelvin has no non-test use outside package deadexport: unexport it`

// Celsius has no use at all.
func (t Temp) Celsius() int { return int(t) } // want `deadexport\.Temp\.Celsius has no non-test use: delete it`

// Config is never named by the client, but Load's signature carries it
// there.
type Config struct{ N int }

// Load is called by the client.
func Load() Config { return Config{N: helper()} }

// Local is exported, but only Used's package uses it.
var Local = 3 // want `deadexport\.Local has no non-test use outside package deadexport: unexport it`

var _ = Local

// Wire codes: the block is the protocol's table.
//
//lint:ignore deadexport the protocol's table, unused codes included
const (
	CodeHello = 1
	CodeBye   = 2
)
