package experiments

import (
	"fmt"
	"time"

	"escape/internal/flowsim"
	"escape/internal/substrate"
)

// E14 — operator-scale orchestration on the flow-level substrate. The
// E11-class workload (admission churn, mid-life link failures with
// healing, capacity pressure) runs against internal/flowsim instead of
// packet emulation: the same KSP mapper, the same copy-on-write
// admission protocol and the same AdmitHeal path decide everything,
// while the substrate models links analytically — which is what lets
// one cell hold 100k switches and a million concurrent services where
// netem tops out around fat-tree k=12.
//
// Every column derives from virtual time and deterministic iteration:
// two runs of the same configuration produce bit-identical tables
// (TestE14BitIdentical). How fast the machine plays a trace is
// bench/'s admit_scale workload, not a column here.

// E14 workload constants: chains of two NFs arriving over one virtual
// hour at 1 Mb/s each, trace seed 14.
const (
	e14ChainLen = 2
	e14Horizon  = time.Hour
	e14Rate     = 1e6
	e14Seed     = 14
)

// e14Config sizes one run; the registry's "e14" entry holds its values.
type e14Config struct {
	// Topology: Regions × SwitchesPerRegion switches (see
	// substrate.ScaleSpec), SAPs/EEs per region bound the attachment
	// sets that drive mapping cost.
	Regions           int
	SwitchesPerRegion int
	SAPsPerRegion     int
	EEsPerRegion      int
	// Workload: Services arrivals over the horizon, holding for
	// MeanLifetime. Lifetimes ≫ horizon pile services up toward
	// "Services concurrent".
	Services     int
	MeanLifetime time.Duration
	// LinkBW is the per-SG-link demand.
	LinkBW float64
	// Faults injects this many link fail/heal pairs per cell (healing
	// re-steers affected services through core.AdmitHeal).
	Faults int
	// Processes selects the arrival-process cells.
	Processes []substrate.ArrivalProcess
}

// e14ScaleSim runs one cell per arrival process and reports the
// decision and traffic outcomes.
func e14ScaleSim(cfg e14Config) (*Table, error) {
	params := substrate.ScaleParams{
		Regions: cfg.Regions, SwitchesPerRegion: cfg.SwitchesPerRegion,
		SAPsPerRegion: cfg.SAPsPerRegion, EEsPerRegion: cfg.EEsPerRegion,
		BackboneBW: 1e12, RegionBW: 400e9,
		// Size EEs so compute never rejects: E14 studies bandwidth
		// pressure and healing at scale, not bin-packing.
		EECPU: float64(cfg.Services*e14ChainLen) * 0.125 / float64(cfg.Regions*cfg.EEsPerRegion) * 4,
		EEMem: cfg.Services * e14ChainLen * 32 / (cfg.Regions * cfg.EEsPerRegion) * 4,
	}
	spec := substrate.ScaleSpec(params)

	t := &Table{
		ID: "E14",
		Title: fmt.Sprintf("Flow-level substrate at %d switches: admission + healing under realistic arrivals (%d services, chains of %d)",
			cfg.Regions*cfg.SwitchesPerRegion, cfg.Services, e14ChainLen),
		Columns: []string{"proc", "sw", "links", "saps", "ees", "services",
			"admitted", "rejected", "heal_mv", "rerouted", "peak_act",
			"dlv_pct", "max_util", "overload", "virt_h"},
		Notes: []string{
			"virtual-time derived: same config + seed ⇒ bit-identical rows",
			"same mapper/admission/heal code as E11 — only the substrate is analytic",
		},
	}

	for _, proc := range cfg.Processes {
		events := substrate.GenerateWorkload(substrate.WorkloadParams{
			Seed: e14Seed, Process: proc, Services: cfg.Services,
			Horizon: e14Horizon, MeanLifetime: cfg.MeanLifetime,
			ChainLen: e14ChainLen, Rate: e14Rate,
			SAPs: spec.SAPNames(), PairPool: 4096,
		})
		if cfg.Faults > 0 {
			// Fault the backbone ring (the first Regions links of the
			// spec): those are the shared trunks whose loss re-steers
			// many services at once.
			backbone := spec.Links
			if len(backbone) > cfg.Regions {
				backbone = backbone[:cfg.Regions]
			}
			events = substrate.WithLinkFaults(events, backbone, cfg.Faults,
				e14Seed+1, e14Horizon, e14Horizon/20)
		}
		if err := e14Cell(t, spec, events, cfg, string(proc)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e14Cell plays one cell's trace on a fresh simulator and view and adds
// its row.
func e14Cell(t *Table, spec *substrate.TopoSpec, events []substrate.ScenarioEvent, cfg e14Config, proc string) error {
	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		return err
	}
	if err := sim.Start(); err != nil {
		return err
	}
	defer sim.Stop()
	rv, err := sim.View()
	if err != nil {
		return err
	}
	rep, err := substrate.PlayScenario(sim, rv, substrate.DefaultMapper(), events, substrate.PlayOptions{
		Traffic: true, HealOnFault: true, LinkBW: cfg.LinkBW,
	})
	if err != nil {
		return err
	}
	lrep := sim.Report()
	t.addRow(
		proc,
		fmt.Sprintf("%d", len(spec.Switches)),
		fmt.Sprintf("%d", len(spec.Links)),
		fmt.Sprintf("%d", len(spec.Hosts)),
		fmt.Sprintf("%d", len(spec.EEs)),
		fmt.Sprintf("%d", cfg.Services),
		fmt.Sprintf("%d", rep.Admitted),
		fmt.Sprintf("%d", rep.Rejected),
		fmt.Sprintf("%d", rep.HealMoves),
		fmt.Sprintf("%d", rep.Rerouted),
		fmt.Sprintf("%d", rep.PeakActive),
		fmt.Sprintf("%.3f", rep.DeliveredPct()),
		fmt.Sprintf("%.3f", lrep.MaxUtilization),
		fmt.Sprintf("%d", lrep.Overloaded),
		fmt.Sprintf("%.2f", sim.Now().Hours()),
	)
	return nil
}
