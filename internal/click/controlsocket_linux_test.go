package click

import (
	"syscall"
	"testing"
)

// ipprotoMPTCP is Linux's IPPROTO_MPTCP.
const ipprotoMPTCP = 262

// TestControlSocketListensPlainTCP: the ClickControl listener is a plain
// TCP socket even where the kernel would give Go's default listener
// MPTCP.
func TestControlSocketListensPlainTCP(t *testing.T) {
	_, cs := newCSRouter(t)
	sc, err := cs.ln.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var proto int
	var serr error
	if err := sc.Control(func(fd uintptr) {
		proto, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_PROTOCOL)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	if proto != syscall.IPPROTO_TCP {
		t.Errorf("control socket listens with protocol %d (MPTCP is %d), want TCP (%d)", proto, ipprotoMPTCP, syscall.IPPROTO_TCP)
	}
}
