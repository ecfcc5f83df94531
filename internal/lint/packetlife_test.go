package lint_test

import (
	"testing"

	"escape/internal/lint/linttest"
)

func TestPacketLife(t *testing.T) {
	linttest.Run(t, "packetlife", "packetlife")
}
