package click

import (
	"escape/internal/pkt"
)

// FrameFilter reports whether a frame's headers, parsed once by pkt.Parse
// for any number of filters, match a compiled expression (see
// CompileFilter). Firewall and IPClassifier evaluate their rules this way.
type FrameFilter func(*pkt.Headers) bool
