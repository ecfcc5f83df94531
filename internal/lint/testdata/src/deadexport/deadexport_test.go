package deadexport

import "testing"

// A use in a test file does not keep OnlyTested alive.
func TestOnlyTested(t *testing.T) { OnlyTested() }
