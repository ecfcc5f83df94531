package experiments

import (
	"fmt"
	"time"

	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/steering"
)

// E5Steering measures chain-path installation across path lengths: rule
// count, install latency (including barriers) and first-packet latency.
func E5Steering(lengths []int) (*Table, error) {
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

// e5Run builds a fresh line h1—s1—…—sL—h2 (every switch takes the frame
// in on port 1 and sends it out on port 2), installs one path along it,
// sends one frame through and appends the row. Whatever it built is
// stopped when it returns, on error too.
func e5Run(t *Table, L int) error {
	ctrl := pox.NewController()
	st := steering.New(ctrl)
	ctrl.Register(st)
	n := netem.New("e5", netem.Options{Controller: ctrl})
	defer func() {
		n.Stop()
		ctrl.Close()
	}()
	line := []string{"h1"}
	hops := make([]steering.Hop, L)
	for i := range hops {
		sw, err := n.AddSwitch(fmt.Sprintf("s%d", i+1))
		if err != nil {
			return err
		}
		line = append(line, sw.NodeName())
		hops[i] = steering.Hop{DPID: sw.DPID(), InPort: 1, OutPort: 2}
	}
	line = append(line, "h2")
	h1, err := n.AddHost("h1")
	if err != nil {
		return err
	}
	h2, err := n.AddHost("h2")
	if err != nil {
		return err
	}
	for i := 1; i < len(line); i++ {
		if _, err := n.AddLink(line[i-1], line[i], netem.LinkConfig{}); err != nil {
			return err
		}
	}
	if err := n.Start(); err != nil {
		return err
	}
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
	t.AddRow(fmt.Sprint(L), fmt.Sprint(inst.RuleCount), ms(install), ms(firstPkt))
	return nil
}
