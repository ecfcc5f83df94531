package lint_test

import (
	"testing"

	"escape/internal/lint/linttest"
)

func TestTolerantIO(t *testing.T) {
	// The discard rule is exercised from the tolerantio corpus; the
	// strict-variant teardown rule fires on unexported sendMods and so
	// lives inside the steering stand-in.
	linttest.Run(t, "tolerantio", "tolerantio", "steering")
}
