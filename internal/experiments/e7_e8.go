package experiments

import (
	"fmt"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pox"
	"escape/internal/vnfagent"
)

// e7NETCONF measures the management plane: session setup, per-RPC
// latency, and the full initiate→connect→start cycle for growing VNF
// counts on one agent.
func e7NETCONF(counts []int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "NETCONF management: vnf_starter RPC latency vs hosted VNFs",
		Columns: []string{"vnfs", "session_ms", "per_vnf_setup_ms", "getinfo_ms", "stop_all_ms"},
		Notes:   []string{"shape check: per-VNF setup stays flat; getVNFInfo grows with inventory"},
	}
	for _, count := range counts {
		ctrl := pox.NewController()
		ctrl.Register(pox.NewL2Learning())
		n, err := netem.Build(&netem.Topo{Name: "e7", Switches: []string{"s1"}, EEs: []netem.EESpec{
			{Name: "ee1", Switch: "s1", CPU: float64(count), Mem: count * 64},
		}}, netem.Options{Controller: ctrl})
		if err != nil {
			return nil, err
		}
		if err := n.Start(); err != nil {
			return nil, err
		}
		agent := vnfagent.New(n.Node("ee1").(*netem.EE), n, catalog.Default())
		if err := agent.ListenAndServe("127.0.0.1:0"); err != nil {
			return nil, err
		}

		t0 := time.Now()
		client, err := vnfagent.DialClient(agent.Addr())
		if err != nil {
			return nil, err
		}
		session := time.Since(t0)

		t1 := time.Now()
		ids := make([]string, 0, count)
		for i := 0; i < count; i++ {
			id, err := client.InitiateVNF("monitor", map[string]string{"cpu": "0.5", "mem": "32"})
			if err != nil {
				return nil, err
			}
			if _, err := client.ConnectVNF(id, "in", "s1"); err != nil {
				return nil, err
			}
			if _, err := client.ConnectVNF(id, "out", "s1"); err != nil {
				return nil, err
			}
			if _, err := client.StartVNF(id); err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		perVNF := time.Since(t1) / time.Duration(count)

		t2 := time.Now()
		infos, err := client.GetVNFInfo()
		if err != nil {
			return nil, err
		}
		getInfo := time.Since(t2)
		if len(infos) != count {
			return nil, fmt.Errorf("experiments: E7 inventory %d != %d", len(infos), count)
		}

		t3 := time.Now()
		for _, id := range ids {
			if err := client.StopVNF(id); err != nil {
				return nil, err
			}
		}
		stopAll := time.Since(t3)

		t.addRow(fmt.Sprint(count), ms(session), ms(perVNF), ms(getInfo), ms(stopAll))
		client.Close()
		agent.Close()
		n.Stop()
		ctrl.Close()
	}
	return t, nil
}

// e8ServiceCreation measures end-to-end on-demand service creation
// (Deploy wall time with per-phase breakdown) against chain length.
func e8ServiceCreation(chainLens []int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "On-demand service creation time vs chain length",
		Columns: []string{"chain_len", "total_ms", "map_ms", "vnf_setup_ms", "steering_ms", "teardown_ms"},
		Notes:   []string{"shape check: total grows with chain length, dominated by vnf-setup (NETCONF): two pipelined flights per EE (the initiates, then the connects and starts), EE-side work per NF"},
	}
	for _, L := range chainLens {
		spec := demoTopo()
		// Enough capacity for the longest chains.
		spec.EEs = map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: float64(L) + 2, Mem: 8192},
			"ee2": {Switch: "s2", CPU: float64(L) + 2, Mem: 8192},
		}
		env, err := core.StartEnvironment(spec)
		if err != nil {
			return nil, err
		}
		types := make([]string, L)
		for i := range types {
			types[i] = "monitor"
		}
		g := demoGraph(fmt.Sprintf("e8-%d", L), types...)
		t0 := time.Now()
		svc, err := env.Orch.Deploy(g)
		total := time.Since(t0)
		if err != nil {
			env.Close()
			return nil, err
		}
		t1 := time.Now()
		if err := env.Orch.Undeploy(g.Name); err != nil {
			env.Close()
			return nil, err
		}
		teardown := time.Since(t1)
		t.addRow(fmt.Sprint(L), ms(total),
			ms(svc.PhaseDurations["map"]),
			ms(svc.PhaseDurations["vnf-setup"]),
			ms(svc.PhaseDurations["steering"]),
			ms(teardown))
		env.Close()
	}
	return t, nil
}
