package netem

import (
	"slices"
	"testing"
)

// releaseNet is a started network with one switch, one host on port 1 and
// one EE of 2 CPU / 1024 MB.
func releaseNet(t *testing.T) (*Network, *EE, *SwitchNode) {
	t.Helper()
	n, _ := newStartedNet(t, func(n *Network) error {
		if _, err := n.AddSwitch("s1"); err != nil {
			return err
		}
		if _, err := n.AddHost("h1"); err != nil {
			return err
		}
		if _, err := n.AddLink("h1", "s1", LinkConfig{}); err != nil {
			return err
		}
		_, err := n.AddEE("ee1", EEConfig{CPU: 2, Mem: 1024})
		return err
	})
	return n, n.Node("ee1").(*EE), n.Node("s1").(*SwitchNode)
}

func initForwarder(t *testing.T, ee *EE, name string) {
	t.Helper()
	if _, err := ee.InitVNF(VNFSpec{
		Name:        name,
		ClickConfig: `FromDevice(in) -> Queue(64) -> ToDevice(out);`,
		Devices:     []string{"in", "out"},
		CPU:         500_000, Mem: 128,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReapStoppedDisconnectedVNF: a VNF leaves the EE once it is stopped
// and none of its devices is connected, whichever of stop and disconnect
// completes that; its links and switch ports go with the disconnects.
func TestReapStoppedDisconnectedVNF(t *testing.T) {
	n, ee, s1 := releaseNet(t)
	links0, ports0 := len(n.Links()), s1.Switch().PortCount()

	// Stop first, then disconnect: the last disconnect releases it.
	initForwarder(t, ee, "v1")
	for _, dev := range []string{"in", "out"} {
		if _, err := ee.ConnectVNF(n, "v1", dev, "s1", LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ee.StartVNF("v1"); err != nil {
		t.Fatal(err)
	}
	if got := s1.Switch().PortCount(); got != ports0+2 {
		t.Fatalf("ports = %d, want %d", got, ports0+2)
	}
	if err := ee.StopVNF("v1"); err != nil {
		t.Fatal(err)
	}
	if ee.VNF("v1") == nil {
		t.Fatal("stopped VNF with connected devices was released")
	}
	if err := ee.DisconnectVNF("v1", "in"); err != nil {
		t.Fatal(err)
	}
	if ee.VNF("v1") == nil {
		t.Fatal("VNF released with a device still connected")
	}
	if err := ee.DisconnectVNF("v1", "out"); err != nil {
		t.Fatal(err)
	}
	if ee.VNF("v1") != nil || len(ee.VNFNames()) != 0 {
		t.Errorf("VNF not released: names = %v", ee.VNFNames())
	}
	if got := len(n.Links()); got != links0 {
		t.Errorf("links = %d, want %d", got, links0)
	}
	if got := s1.Switch().PortCount(); got != ports0 {
		t.Errorf("ports = %d, want %d", got, ports0)
	}

	// Disconnect first, then stop: an initialized VNF survives being
	// disconnected (it may reconnect); the stop releases it.
	initForwarder(t, ee, "v2")
	if _, err := ee.ConnectVNF(n, "v2", "in", "s1", LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := ee.DisconnectVNF("v2", "in"); err != nil {
		t.Fatal(err)
	}
	if ee.VNF("v2") == nil {
		t.Fatal("disconnected initialized VNF was released")
	}
	if err := ee.StopVNF("v2"); err != nil {
		t.Fatalf("stopping an initialized VNF: %v", err)
	}
	if ee.VNF("v2") != nil {
		t.Error("stopped, disconnected VNF not released")
	}
	if err := ee.StopVNF("v2"); err == nil {
		t.Error("stopping a released VNF succeeded")
	}
	if got := ee.AvailableCPU(); got != 2_000_000 {
		t.Errorf("available CPU = %v, want 2", got)
	}
	if got := s1.Switch().PortCount(); got != ports0 {
		t.Errorf("ports = %d, want %d", got, ports0)
	}
}

// TestReapOnCrashRemovesLinksAndPorts: a crashed EE's VNFs die with their
// links and switch ports, so a restarted EE starts from the switch as it
// was before they were connected.
func TestReapOnCrashRemovesLinksAndPorts(t *testing.T) {
	n, ee, s1 := releaseNet(t)
	links0, ports0 := len(n.Links()), s1.Switch().PortCount()
	initForwarder(t, ee, "v1")
	for _, dev := range []string{"in", "out"} {
		if _, err := ee.ConnectVNF(n, "v1", dev, "s1", LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ee.StartVNF("v1"); err != nil {
		t.Fatal(err)
	}
	ee.Crash()
	if got := len(n.Links()); got != links0 {
		t.Errorf("links = %d, want %d", got, links0)
	}
	if got := s1.Switch().PortCount(); got != ports0 {
		t.Errorf("ports = %d, want %d", got, ports0)
	}
	ee.Restart()
	initForwarder(t, ee, "v1")
	no, err := ee.ConnectVNF(n, "v1", "in", "s1", LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if no != 2 {
		t.Errorf("reconnect after crash got port %d, want the freed 2", no)
	}
}

// TestPortReuseTakesLowestFree: a new switch port takes the lowest number
// no live port holds.
func TestPortReuseTakesLowestFree(t *testing.T) {
	n, ee, _ := releaseNet(t)
	if _, err := ee.InitVNF(VNFSpec{Name: "v", ClickConfig: "FromDevice(in) -> ToDevice(out);", Devices: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	var got []uint16
	for _, dev := range []string{"a", "b", "c"} {
		no, err := ee.ConnectVNF(n, "v", dev, "s1", LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, no)
	}
	if !slices.Equal(got, []uint16{2, 3, 4}) {
		t.Fatalf("ports = %v, want [2 3 4] (h1 holds 1)", got)
	}
	if err := ee.DisconnectVNF("v", "b"); err != nil {
		t.Fatal(err)
	}
	if no, err := ee.ConnectVNF(n, "v", "b", "s1", LinkConfig{}); err != nil || no != 3 {
		t.Errorf("reconnect got port %d (%v), want the freed 3", no, err)
	}
}

// TestPortReuseSurvivesPortSpaceChurn: more connect/disconnect cycles on
// one switch than there are OpenFlow port numbers keep succeeding, and
// the switch ends with the ports it started with.
func TestPortReuseSurvivesPortSpaceChurn(t *testing.T) {
	const cycles = 70_000 // > openflow.PortMax - 1 = 65 279 numbers
	n, ee, s1 := releaseNet(t)
	ports0 := s1.Switch().PortCount()
	if _, err := ee.InitVNF(VNFSpec{Name: "v", ClickConfig: "FromDevice(in) -> ToDevice(out);", Devices: []string{"in"}}); err != nil {
		t.Fatal(err)
	}
	for i := range cycles {
		no, err := ee.ConnectVNF(n, "v", "in", "s1", LinkConfig{})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if no != 2 {
			t.Fatalf("cycle %d: port %d, want 2", i, no)
		}
		if err := ee.DisconnectVNF("v", "in"); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if got := s1.Switch().PortCount(); got != ports0 {
		t.Errorf("ports = %d, want %d", got, ports0)
	}
	if got := len(n.Links()); got != 1 {
		t.Errorf("links = %d, want 1 (h1–s1)", got)
	}
}
