package experiments

import (
	"fmt"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/steering"
)

// e5Steering measures chain-path installation across path lengths: rule
// count, install latency (including barriers) and first-packet latency.
func e5Steering(lengths []int) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Steering setup vs path length",
		Columns: []string{"switches", "rules", "install_ms", "first_pkt_ms"},
		Notes:   []string{"shape check: install latency grows linearly with path length"},
	}
	for _, L := range lengths {
		if err := e5Run(t, L); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e5Run builds a fresh line h1—s1—…—sL—h2, installs one path along it,
// taking each switch's in and out ports from the derived view, sends one
// frame through and appends the row. Whatever it built is stopped when
// it returns, on error too.
func e5Run(t *Table, L int) error {
	topo := &netem.Topo{Name: "e5", Hosts: []netem.HostSpec{
		{Name: "h1", Switch: "s1"}, {Name: "h2", Switch: fmt.Sprintf("s%d", L)},
	}}
	for i := 1; i <= L; i++ {
		topo.Switches = append(topo.Switches, fmt.Sprintf("s%d", i))
		if i > 1 {
			topo.Links = append(topo.Links, netem.LinkSpec{A: topo.Switches[i-2], B: topo.Switches[i-1]})
		}
	}
	view, err := core.ViewFromSpec(topo)
	if err != nil {
		return err
	}
	hops := make([]steering.Hop, L)
	in := view.SAPs["h1"].Port
	for i, sw := range topo.Switches {
		hops[i] = steering.Hop{DPID: view.Switches[sw], InPort: in}
		if i < len(view.Links) { // topo.Links[i] joins this switch to the next
			hops[i].OutPort, in = view.Links[i].PortA, view.Links[i].PortB
		} else {
			hops[i].OutPort = view.SAPs["h2"].Port
		}
	}

	ctrl := pox.NewController()
	defer ctrl.Close()
	st := steering.New(ctrl)
	ctrl.Register(st)
	n, err := netem.Build(topo, netem.Options{Controller: ctrl})
	if err != nil {
		return err
	}
	defer n.Stop()
	if err := n.Start(); err != nil {
		return err
	}
	h1, h2 := n.Node("h1").(*netem.Host), n.Node("h2").(*netem.Host)
	t0 := time.Now()
	inst, err := st.InstallPath(steering.Path{ID: "p", Hops: hops})
	install := time.Since(t0)
	if err != nil {
		return err
	}
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("x"))
	t1 := time.Now()
	h1.Send(frame)
	var firstPkt time.Duration
	select {
	case <-h2.Recv():
		firstPkt = time.Since(t1)
	case <-time.After(5 * time.Second):
		return fmt.Errorf("experiments: E5 L=%d frame lost", L)
	}
	t.addRow(fmt.Sprint(L), fmt.Sprint(inst.RuleCount), ms(install), ms(firstPkt))
	return nil
}
