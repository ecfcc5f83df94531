// Servicechain reproduces the UNIFY demo scenario behind the paper: a
// header compression chain over a bandwidth-constrained carrier link.
// Traffic from the access side (h1) traverses headerCompressor before the
// narrow trunk and headerDecompressor after it; the example measures the
// byte savings on the trunk and shows live VNF counters while traffic
// flows.
//
//	go run ./examples/servicechain
package main

import (
	"fmt"
	"log"
	"time"

	"escape/internal/core"
	"escape/internal/mgmt"
	"escape/internal/sg"
	"escape/internal/trafgen"
)

func main() {
	env, err := core.StartEnvironment(core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "s2", CPU: 4, Mem: 2048},
		},
		// The carrier trunk: 10 Mbps, 5 ms.
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2", Bandwidth: 10e6, Delay: 5 * time.Millisecond}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	g := sg.NewChainGraph("unify-compression", "headerCompressor", "headerDecompressor")
	g.SAPs[0].ID, g.SAPs[1].ID = "h1", "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	g.NFs[0].Params = map[string]string{"REFRESH": "128"}

	svc, err := env.Orch.Deploy(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %q: compressor on %s, decompressor on %s\n",
		svc.Name, svc.NFs["nf1"].EE, svc.NFs["nf2"].EE)

	// The trunk link accounts bytes crossing the carrier segment.
	trunk := env.Net.FindLink("s1", "s2")
	before := trunk.Stats()

	// Offer small-payload UDP (headers dominate → compression pays off).
	h1, h2 := env.Host("h1"), env.Host("h2")
	h2.SetAutoRespond(false)
	const packets, payload = 400, 16
	sink := &trafgen.Sink{Host: h2, Port: 9000}
	done := make(chan trafgen.LoadReport, 1)
	go func() { done <- sink.CollectN(packets/2, 15*time.Second) }()
	lg := &trafgen.LoadGen{
		Host: h1, DstIP: h2.IP(), DstMAC: h2.MAC(),
		SrcPort: 1234, DstPort: 9000, Size: payload, Rate: 2000,
	}
	sent, err := lg.Run(packets)
	if err != nil {
		log.Fatal(err)
	}
	got := <-done
	after := trunk.Stats()

	trunkBytes := (after.ABBytes - before.ABBytes) + (after.BABytes - before.BABytes)
	fmt.Printf("\noffered:   %5d packets, %6d bytes at the SAP (%.2f Mbps)\n",
		sent.Packets, sent.Bytes, sent.Mbps())
	fmt.Printf("delivered: %5d packets to h2\n", got.Packets)
	fmt.Printf("trunk carried %d bytes for %d offered bytes\n", trunkBytes, sent.Bytes)
	perPktOffered := float64(sent.Bytes) / float64(sent.Packets)
	fmt.Printf("per-packet on the wire at SAP: %.0f B (42 B of Ethernet+IP+UDP headers, %d B payload)\n",
		perPktOffered, payload)

	// Live monitoring while the chain is up.
	mon := mgmt.NewMonitor(time.Second, 4)
	mon.Add(mgmt.Target{Name: "compressor", Control: svc.NFs["nf1"].Control,
		Handlers: []string{"comp.compressed", "comp.contexts", "rx.count", "tx.count"}})
	mon.Add(mgmt.Target{Name: "decompressor", Control: svc.NFs["nf2"].Control,
		Handlers: []string{"decomp.restored", "decomp.unknown_context"}})
	mon.PollOnce()
	fmt.Println("\nVNF dashboard:")
	fmt.Print(mon.Dashboard())
	mon.Stop()

	if err := env.Orch.Undeploy(g.Name); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nchain removed")
}
