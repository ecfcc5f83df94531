package netem

import (
	"testing"

	"escape/internal/pox"
)

// buildAndStart runs a generator against a fresh network with an
// l2_learning controller and verifies it starts and stops cleanly.
func buildAndStart(t *testing.T, build func(*Network) error) *Network {
	t.Helper()
	ctrl := pox.NewController()
	ctrl.Register(pox.NewL2Learning())
	n := New("topogen", Options{Controller: ctrl})
	if err := build(n); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop(); ctrl.Close() })
	return n
}

func countKind(n *Network, k NodeKind) int {
	c := 0
	for _, node := range n.Nodes() {
		if node.Kind() == k {
			c++
		}
	}
	return c
}

func TestBuildFatTree(t *testing.T) {
	const k = 4
	n := buildAndStart(t, func(n *Network) error { return BuildFatTree(n, k) })
	// k=4: 4 core + 8 agg + 8 edge = 20 switches, 16 hosts.
	if sw := countKind(n, KindSwitch); sw != 20 {
		t.Errorf("switches = %d, want 20", sw)
	}
	if h := countKind(n, KindHost); h != 16 {
		t.Errorf("hosts = %d, want 16", h)
	}
	// links: core-agg 16 + agg-edge 16 + host-edge 16 = 48.
	if l := len(n.Links()); l != 48 {
		t.Errorf("links = %d, want 48", l)
	}
}

func TestBuildFatTreeRejectsOddK(t *testing.T) {
	n := New("bad", Options{})
	for _, k := range []int{0, 1, 3} {
		if err := BuildFatTree(n, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}
