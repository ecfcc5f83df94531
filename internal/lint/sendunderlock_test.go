package lint_test

import (
	"testing"

	"escape/internal/lint/linttest"
)

func TestSendUnderLock(t *testing.T) {
	linttest.Run(t, "sendunderlock", "sendunderlock")
}
