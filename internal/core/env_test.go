package core

import (
	"fmt"
	"net/netip"
	"testing"
)

// TestStartEnvironmentAddressesHostsInNameOrder: one spec gives one
// addressing. Hosts are wired in sorted name order, so h0…h7 take switch
// ports 1…8 and IPs 10.0.0.1…8 whatever order the Hosts map ranges in.
func TestStartEnvironmentAddressesHostsInNameOrder(t *testing.T) {
	spec := TopoSpec{Switches: []string{"s1"}, Hosts: map[string]string{}}
	for i := 0; i < 8; i++ {
		spec.Hosts[fmt.Sprintf("h%d", i)] = "s1"
	}
	env := startEnv(t, spec)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("h%d", i)
		if sap := env.View.SAPs[name]; sap == nil || sap.Port != uint16(i+1) {
			t.Errorf("%s: SAP %+v, want switch port %d", name, sap, i+1)
		}
		want := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		if ip := env.Host(name).Port(0).IP; ip != want {
			t.Errorf("%s: IP %s, want %s", name, ip, want)
		}
	}
}
