package substrate

import (
	"fmt"
	"time"

	"escape/internal/netem"
)

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
	// BackboneBW capacitates the backbone ring and its chords, RegionBW
	// every link inside a region: ScaleSpec has these two link tiers.
	BackboneBW float64
	RegionBW   float64
	// AccessBW is read by nothing. It goes in the benchmark-only change
	// that updates bench/, which still sets it.
	AccessBW float64
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
			spec.Links = append(spec.Links, netem.LinkSpec{
				A: sw(r, 0), B: sw(next, 0), Bandwidth: p.BackboneBW,
				Delay: 2 * time.Millisecond,
			})
		}
	}
	for r := 0; r+10 < p.Regions; r += 10 {
		spec.Links = append(spec.Links, netem.LinkSpec{
			A: sw(r, 0), B: sw(r+10, 0), Bandwidth: p.BackboneBW,
			Delay: 2 * time.Millisecond,
		})
	}
	// Region chains with shortcuts.
	for r := 0; r < p.Regions; r++ {
		for i := 1; i < p.SwitchesPerRegion; i++ {
			spec.Links = append(spec.Links, netem.LinkSpec{
				A: sw(r, i-1), B: sw(r, i), Bandwidth: p.RegionBW,
				Delay: 100 * time.Microsecond,
			})
		}
		for i := 32; i < p.SwitchesPerRegion; i += 32 {
			spec.Links = append(spec.Links, netem.LinkSpec{
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
			spec.Hosts = append(spec.Hosts, netem.HostSpec{
				Name: fmt.Sprintf("sap-r%d-%d", r, j), Switch: sw(r, i),
			})
		}
		for j := 0; j < p.EEsPerRegion; j++ {
			i := (j*13 + 3) % p.SwitchesPerRegion
			spec.EEs = append(spec.EEs, netem.EESpec{
				Name:   fmt.Sprintf("ee-r%d-%d", r, j),
				Switch: sw(r, i), CPU: p.EECPU, Mem: p.EEMem,
			})
		}
	}
	return spec
}
