package lint_test

import (
	"testing"

	"escape/internal/lint/linttest"
)

func TestEpochPin(t *testing.T) {
	// Rule 1 (stale pins) lives in the epochpin corpus; rules 2 and 3
	// (epoch immutability, shared returns) involve unexported names and
	// so live inside the structural core stand-in itself.
	linttest.Run(t, "epochpin", "epochpin", "core")
}
