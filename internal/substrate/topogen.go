package substrate

import (
	"fmt"
	"time"
)

// LinearSpec builds h1—s1—s2—…—sN—h2 with one EE per switch, mirroring
// netem.BuildLinear's shape but with explicit EE capacity.
func LinearSpec(n int, linkBW float64, eeCPU float64, eeMem int) *TopoSpec {
	spec := &TopoSpec{Name: fmt.Sprintf("linear-%d", n)}
	for i := 1; i <= n; i++ {
		spec.Switches = append(spec.Switches, fmt.Sprintf("s%d", i))
	}
	for i := 1; i < n; i++ {
		spec.Links = append(spec.Links, LinkSpec{
			A: fmt.Sprintf("s%d", i), B: fmt.Sprintf("s%d", i+1), Bandwidth: linkBW,
		})
	}
	spec.Hosts = append(spec.Hosts,
		HostSpec{Name: "h1", Switch: "s1"},
		HostSpec{Name: "h2", Switch: fmt.Sprintf("s%d", n)},
	)
	for i := 1; i <= n; i++ {
		sw := fmt.Sprintf("s%d", i)
		spec.EEs = append(spec.EEs, EESpec{
			Name: "ee-" + sw, Switch: sw, CPU: eeCPU, Mem: eeMem,
		})
	}
	return spec
}

// FatTreeSpec builds a k-ary fat-tree (k even): (k/2)² cores, k pods of
// k/2 aggregation + k/2 edge switches, one host and one EE per edge
// switch. Node naming follows netem.BuildFatTree (c%d, p%da%d, p%de%d,
// p%de%dh1).
func FatTreeSpec(k int, trunkBW float64, eeCPU float64, eeMem int) *TopoSpec {
	spec := &TopoSpec{Name: fmt.Sprintf("fattree-%d", k)}
	half := k / 2
	for i := 1; i <= half*half; i++ {
		spec.Switches = append(spec.Switches, fmt.Sprintf("c%d", i))
	}
	for p := 0; p < k; p++ {
		for j := 1; j <= half; j++ {
			spec.Switches = append(spec.Switches, fmt.Sprintf("p%da%d", p, j))
		}
		for j := 1; j <= half; j++ {
			spec.Switches = append(spec.Switches, fmt.Sprintf("p%de%d", p, j))
		}
	}
	for p := 0; p < k; p++ {
		for a := 1; a <= half; a++ {
			agg := fmt.Sprintf("p%da%d", p, a)
			for c := 1; c <= half; c++ {
				core := fmt.Sprintf("c%d", (a-1)*half+c)
				spec.Links = append(spec.Links, LinkSpec{A: agg, B: core, Bandwidth: trunkBW})
			}
			for e := 1; e <= half; e++ {
				spec.Links = append(spec.Links, LinkSpec{
					A: agg, B: fmt.Sprintf("p%de%d", p, e), Bandwidth: trunkBW,
				})
			}
		}
	}
	for p := 0; p < k; p++ {
		for e := 1; e <= half; e++ {
			edge := fmt.Sprintf("p%de%d", p, e)
			spec.Hosts = append(spec.Hosts, HostSpec{
				Name: fmt.Sprintf("%sh1", edge), Switch: edge,
			})
			spec.EEs = append(spec.EEs, EESpec{
				Name: "ee-" + edge, Switch: edge, CPU: eeCPU, Mem: eeMem,
			})
		}
	}
	return spec
}

// MultiDomainSpec builds d star domains of swPer switches joined by a
// gateway chain (domain i's s1 trunks to domain i+1's s1), one host per
// non-gateway switch and one EE per switch: chains that cross gateway
// trunks, the conformance suite's stitching case.
// Gateways returns the inter-domain trunk endpoint pairs in order.
func MultiDomainSpec(d, swPer int, trunkBW float64, eeCPU float64, eeMem int) (*TopoSpec, [][2]string) {
	spec := &TopoSpec{Name: fmt.Sprintf("multidomain-%d", d)}
	var gateways [][2]string
	for i := 0; i < d; i++ {
		for j := 1; j <= swPer; j++ {
			spec.Switches = append(spec.Switches, fmt.Sprintf("d%ds%d", i, j))
		}
	}
	for i := 0; i < d; i++ {
		hub := fmt.Sprintf("d%ds1", i)
		for j := 2; j <= swPer; j++ {
			spec.Links = append(spec.Links, LinkSpec{
				A: hub, B: fmt.Sprintf("d%ds%d", i, j), Bandwidth: trunkBW,
			})
		}
		if i+1 < d {
			next := fmt.Sprintf("d%ds1", i+1)
			spec.Links = append(spec.Links, LinkSpec{A: hub, B: next, Bandwidth: trunkBW})
			gateways = append(gateways, [2]string{hub, next})
		}
	}
	for i := 0; i < d; i++ {
		for j := 2; j <= swPer; j++ {
			sw := fmt.Sprintf("d%ds%d", i, j)
			spec.Hosts = append(spec.Hosts, HostSpec{Name: sw + "h1", Switch: sw})
		}
		for j := 1; j <= swPer; j++ {
			sw := fmt.Sprintf("d%ds%d", i, j)
			spec.EEs = append(spec.EEs, EESpec{Name: "ee-" + sw, Switch: sw, CPU: eeCPU, Mem: eeMem})
		}
	}
	return spec, gateways
}

// ScaleParams size an operator-scale topology for the flow-level
// simulator. A fat-tree at 100k switches would carry ~11M links (every
// BFS would walk them); operators instead run sparse hierarchies, so
// ScaleSpec builds one: a backbone ring with chords, per-region
// aggregation rings hanging off it, and access switches chained beneath
// — ~2 links per switch, which keeps the per-source BFS the KSP mapper
// memoizes at ~O(switches).
type ScaleParams struct {
	// Regions × SwitchesPerRegion ≈ total switches.
	Regions           int
	SwitchesPerRegion int
	// SAPsPerRegion and EEsPerRegion bound the distinct attachment
	// switches: placement cost scales with EEs and route-cache size with
	// attach-switch pairs, not raw topology size.
	SAPsPerRegion int
	EEsPerRegion  int
	// BackboneBW / RegionBW / AccessBW capacitate the three tiers.
	BackboneBW float64
	RegionBW   float64
	AccessBW   float64
	// EECPU/EEMem size each EE.
	EECPU float64
	EEMem int
}

// ScaleSpec builds the operator-scale hierarchy: region r's switches
// r0…r(n-1) form a chain with a shortcut every 32 hops (keeping
// intra-region diameter low without densifying), r0 joins the backbone
// ring, and every 10th region adds a chord across the ring. SAPs and
// EEs spread over the first switches of each region at fixed strides.
func ScaleSpec(p ScaleParams) *TopoSpec {
	if p.Regions <= 0 || p.SwitchesPerRegion <= 0 {
		return &TopoSpec{Name: "scale-empty"}
	}
	spec := &TopoSpec{Name: fmt.Sprintf("scale-%dx%d", p.Regions, p.SwitchesPerRegion)}
	sw := func(r, i int) string { return fmt.Sprintf("r%ds%d", r, i) }
	for r := 0; r < p.Regions; r++ {
		for i := 0; i < p.SwitchesPerRegion; i++ {
			spec.Switches = append(spec.Switches, sw(r, i))
		}
	}
	// Backbone ring over the region heads, with chords every 10 regions.
	for r := 0; r < p.Regions; r++ {
		next := (r + 1) % p.Regions
		if next != r {
			spec.Links = append(spec.Links, LinkSpec{
				A: sw(r, 0), B: sw(next, 0), Bandwidth: p.BackboneBW,
				Delay: 2 * time.Millisecond,
			})
		}
	}
	for r := 0; r+10 < p.Regions; r += 10 {
		spec.Links = append(spec.Links, LinkSpec{
			A: sw(r, 0), B: sw(r+10, 0), Bandwidth: p.BackboneBW,
			Delay: 2 * time.Millisecond,
		})
	}
	// Region chains with shortcuts.
	for r := 0; r < p.Regions; r++ {
		for i := 1; i < p.SwitchesPerRegion; i++ {
			spec.Links = append(spec.Links, LinkSpec{
				A: sw(r, i-1), B: sw(r, i), Bandwidth: p.RegionBW,
				Delay: 100 * time.Microsecond,
			})
		}
		for i := 32; i < p.SwitchesPerRegion; i += 32 {
			spec.Links = append(spec.Links, LinkSpec{
				A: sw(r, 0), B: sw(r, i), Bandwidth: p.RegionBW,
				Delay: 100 * time.Microsecond,
			})
		}
	}
	// SAPs and EEs at fixed strides near each region head: access links
	// are implicit (host attachments), EEs attach directly.
	for r := 0; r < p.Regions; r++ {
		for j := 0; j < p.SAPsPerRegion; j++ {
			i := (j * 7) % p.SwitchesPerRegion
			spec.Hosts = append(spec.Hosts, HostSpec{
				Name: fmt.Sprintf("sap-r%d-%d", r, j), Switch: sw(r, i),
			})
		}
		for j := 0; j < p.EEsPerRegion; j++ {
			i := (j*13 + 3) % p.SwitchesPerRegion
			spec.EEs = append(spec.EEs, EESpec{
				Name:   fmt.Sprintf("ee-r%d-%d", r, j),
				Switch: sw(r, i), CPU: p.EECPU, Mem: p.EEMem,
			})
		}
	}
	return spec
}
