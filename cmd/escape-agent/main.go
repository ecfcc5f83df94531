// Command escape-agent runs a standalone ESCAPE VNF-container agent: a
// NETCONF server managing one execution environment (EE), exactly the
// role OpenYuma played on each container node of the original system.
// It embeds a minimal infrastructure slice (one switch + one EE) so the
// managed VNFs have a datapath to connect to; in a full deployment the
// orchestrator reaches many such agents over the control network.
//
// Usage:
//
//	escape-agent -listen 127.0.0.1:8300 -cpu 4 -mem 2048
//	escape-agent -yang       # print the vnf_starter module and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"escape/internal/catalog"
	"escape/internal/netem"
	"escape/internal/pox"
	"escape/internal/vnfagent"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8300", "NETCONF listen address")
	cpu := flag.Float64("cpu", 4, "EE CPU capacity (cores)")
	mem := flag.Int("mem", 2048, "EE memory capacity (MB)")
	printYANG := flag.Bool("yang", false, "print the vnf_starter YANG module and exit")
	flag.Parse()

	if *printYANG {
		fmt.Print(vnfagent.Module().YANG())
		return
	}
	if err := run(*listen, *cpu, *mem); err != nil {
		fmt.Fprintln(os.Stderr, "escape-agent:", err)
		os.Exit(1)
	}
}

func run(listen string, cpu float64, mem int) error {
	ctrl := pox.NewController()
	ctrl.Register(pox.NewL2Learning())
	n, err := netem.Build(&netem.Topo{Name: "agent-infra", Switches: []string{"s1"}, EEs: []netem.EESpec{
		{Name: "ee1", Switch: "s1", CPU: cpu, Mem: mem},
	}}, netem.Options{Controller: ctrl})
	if err != nil {
		return err
	}
	ee := n.Node("ee1").(*netem.EE)
	if err := n.Start(); err != nil {
		return err
	}
	defer func() {
		n.Stop()
		ctrl.Close()
	}()

	agent := vnfagent.New(ee, n, catalog.Default())
	if err := agent.ListenAndServe(listen); err != nil {
		return err
	}
	defer agent.Close()
	fmt.Printf("escape-agent: managing EE %q (cpu=%.1f mem=%dMB), NETCONF on %s\n",
		ee.NodeName(), cpu, mem, agent.Addr())
	fmt.Println("escape-agent: RPCs: initiateVNF startVNF stopVNF connectVNF disconnectVNF getVNFInfo")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nescape-agent: shutting down")
	return nil
}
