package experiments

import (
	"fmt"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pox"
	"escape/internal/sg"
)

// E3Scale measures emulation bring-up cost against topology size: the
// "scaling up to hundreds of nodes" claim. For each size it builds a
// linear topology (n switches + n hosts), starts it with an l2_learning
// controller over in-process pipes, then tears it down.
func E3Scale(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Emulation scale-up: linear topology build+start+stop time vs node count",
		Columns: []string{"switches", "hosts", "links", "build_ms", "start_ms", "per_node_us", "stop_ms"},
		Notes:   []string{"shape check: per-node cost should stay roughly flat (linear total growth)"},
	}
	for _, n := range sizes {
		ctrl := pox.NewController()
		ctrl.Register(pox.NewL2Learning())
		net_ := netem.New("scale", netem.Options{Controller: ctrl})
		t0 := time.Now()
		if err := netem.BuildLinear(net_, n); err != nil {
			return nil, err
		}
		build := time.Since(t0)
		t1 := time.Now()
		if err := net_.Start(); err != nil {
			return nil, err
		}
		start := time.Since(t1)
		nodes := 2 * n
		perNode := (build + start) / time.Duration(nodes)
		t2 := time.Now()
		net_.Stop()
		ctrl.Close()
		stop := time.Since(t2)
		t.AddRow(
			fmt.Sprint(n), fmt.Sprint(n), fmt.Sprint(len(net_.Links())),
			ms(build), ms(start), us(perNode), ms(stop),
		)
	}
	return t, nil
}

// e4View builds the E4 substrate: a ring of nSw switches with SAPs on
// opposite sides and one EE on every second switch.
func e4View(nSw int, eeCPU float64) *core.ResourceView {
	rv := core.NewResourceView()
	name := func(i int) string { return fmt.Sprintf("sw%02d", i) }
	for i := 0; i < nSw; i++ {
		rv.Switches[name(i)] = uint64(i + 1)
	}
	for i := 0; i < nSw; i++ {
		rv.Links = append(rv.Links, &core.LinkRes{
			A: name(i), B: name((i + 1) % nSw),
			PortA: 10, PortB: 11,
			Bandwidth: 100e6,
		})
	}
	rv.SAPs["sap1"] = &core.SAPRes{ID: "sap1", Switch: name(0), Port: 1}
	rv.SAPs["sap2"] = &core.SAPRes{ID: "sap2", Switch: name(nSw / 2), Port: 1}
	for i := 0; i < nSw; i += 2 {
		ee := fmt.Sprintf("ee%02d", i)
		rv.EEs[ee] = &core.EERes{Name: ee, CPU: eeCPU, Mem: 4096, Switch: name(i)}
	}
	return rv
}

// E4Mapping compares the mapping algorithms: per-request latency, how
// many sequential requests each admits before the first rejection
// (acceptance under load), and the path stretch of accepted mappings.
func E4Mapping(nSwitches int, chainLen int, requests int) (*Table, error) {
	cat := catalog.Default()
	// The registry keeps E4 and the conformance suite on the same mapper
	// set; only bound the optimal reference's search budget.
	mappers := core.RegisteredMappers(cat)
	for _, m := range mappers {
		if bm, ok := m.(*core.BacktrackMapper); ok {
			bm.MaxNodes = 50000
		}
	}
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Mapping algorithms: %d-switch ring, %d-NF chains, %d sequential requests", nSwitches, chainLen, requests),
		Columns: []string{"algorithm", "accepted", "avg_map_ms", "avg_hops", "first_reject"},
		Notes: []string{
			"shape check: backtrack accepts the most at ~100x mapping time;",
			"random pays the worst path stretch (avg_hops); ksp ≈ greedy cost",
		},
	}
	types := make([]string, chainLen)
	for i := range types {
		types[i] = "monitor" // 0.1 CPU each
	}
	for _, m := range mappers {
		rv := e4View(nSwitches, 1.0)
		accepted := 0
		firstReject := -1
		var totalTime time.Duration
		totalHops := 0
		for r := 0; r < requests; r++ {
			g := sg.NewChainGraph(fmt.Sprintf("req%d", r), types...)
			// Every segment demands bandwidth: longer routes burn more
			// capacity, so placement quality shows up in acceptance, not
			// just path stretch.
			for _, l := range g.Links {
				l.Bandwidth = 10e6
			}
			start := time.Now()
			mapping, err := m.Map(g, rv)
			totalTime += time.Since(start)
			if err != nil {
				if firstReject < 0 {
					firstReject = r
				}
				continue
			}
			rv.Commit(mapping)
			accepted++
			totalHops += mapping.TotalHops()
		}
		avgT := time.Duration(0)
		if requests > 0 {
			avgT = totalTime / time.Duration(requests)
		}
		avgHops := "-"
		if accepted > 0 {
			avgHops = fmt.Sprintf("%.1f", float64(totalHops)/float64(accepted))
		}
		fr := "-"
		if firstReject >= 0 {
			fr = fmt.Sprint(firstReject)
		}
		t.AddRow(m.MapperName(), fmt.Sprintf("%d/%d", accepted, requests), ms(avgT), avgHops, fr)
	}
	return t, nil
}
