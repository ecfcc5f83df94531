// Flowsim demonstrates the pluggable Substrate backend: the same
// scenario — a generated workload with a mid-life backbone fault and
// automatic healing — plays once on the packet-level netem substrate
// and once on the analytic flow-level simulator, and the placement and
// steering decisions come out identical. Then the simulator alone runs
// the same workload shape at a scale the emulator could never hold.
//
//	go run ./examples/flowsim [-regions 8] [-sw 64] [-services 300]
package main

import (
	"flag"
	"fmt"
	"log"
	"reflect"
	"time"

	"escape/internal/flowsim"
	"escape/internal/netem"
	"escape/internal/substrate"
)

func play(sub substrate.Substrate, events []substrate.ScenarioEvent, traffic bool) *substrate.PlayReport {
	rv, err := sub.View()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := substrate.PlayScenario(sub, rv, substrate.DefaultMapper(), events, substrate.PlayOptions{
		Traffic: traffic, HealOnFault: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	regions := flag.Int("regions", 8, "scale topology regions")
	sw := flag.Int("sw", 64, "switches per region")
	services := flag.Int("services", 300, "services in the scaled run")
	flag.Parse()

	// Part 1 — conformance on a shared small scenario. Both substrates
	// realize the same fat-tree spec and replay the same trace; the
	// decisions must match because both expose the same ResourceView to
	// the same mapper.
	spec, err := netem.FatTree(4, netem.Sizing{TrunkBW: 10e9, EECPU: 64, EEMem: 1 << 16})
	if err != nil {
		log.Fatal(err)
	}
	events := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 7, Process: substrate.FlashCrowd, Services: 40,
		Horizon: time.Hour, MeanLifetime: 30 * time.Minute,
		ChainLen: 2, Rate: 1e6, SAPs: spec.SAPNames(),
	})
	events = substrate.WithLinkFaults(events, spec.Links[:4], 2, 11, time.Hour, 5*time.Minute)

	nsub, err := substrate.NewNetem(spec, substrate.NetemOptions{})
	if err != nil {
		log.Fatal(err)
	}
	nrep := play(nsub, events, false) // decisions-only: no packet clock

	fsim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := fsim.Start(); err != nil {
		log.Fatal(err)
	}
	frep := play(fsim, events, true)
	fsim.Stop()

	fmt.Printf("fat-tree k=4, %d services, 2 backbone faults:\n", 40)
	fmt.Printf("  netem   substrate: admitted %d, rejected %d, rerouted %d\n",
		nrep.Admitted, nrep.Rejected, nrep.Rerouted)
	fmt.Printf("  flowsim substrate: admitted %d, rejected %d, rerouted %d, delivered %.2f%%\n",
		frep.Admitted, frep.Rejected, frep.Rerouted, frep.DeliveredPct())
	for svc, nd := range nrep.Decisions {
		if !reflect.DeepEqual(nd, frep.Decisions[svc]) {
			log.Fatalf("decision diverged for %s:\nnetem:   %+v\nflowsim: %+v", svc, nd, frep.Decisions[svc])
		}
	}
	fmt.Printf("  all %d per-service decisions identical across substrates\n\n", len(nrep.Decisions))

	// Part 2 — the same workload shape at operator scale, flowsim only.
	big := substrate.ScaleSpec(substrate.ScaleParams{
		Regions: *regions, SwitchesPerRegion: *sw,
		SAPsPerRegion: 4, EEsPerRegion: 3,
		BackboneBW: 1e12, RegionBW: 400e9,
		EECPU: float64(*services), EEMem: *services * 64,
	})
	bigEvents := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 7, Process: substrate.Diurnal, Services: *services,
		Horizon: time.Hour, MeanLifetime: 4 * time.Hour,
		ChainLen: 2, Rate: 1e6, SAPs: big.SAPNames(),
	})
	bigEvents = substrate.WithLinkFaults(bigEvents, big.Links[:*regions], 4, 11, time.Hour, 3*time.Minute)

	bsim, err := flowsim.New(big, flowsim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := bsim.Start(); err != nil {
		log.Fatal(err)
	}
	wall := time.Now()
	brep := play(bsim, bigEvents, true)
	lrep := bsim.Report()
	bsim.Stop()

	fmt.Printf("scale run: %d switches, %d links, %d services (flowsim)\n",
		len(big.Switches), len(big.Links), *services)
	fmt.Printf("  admitted %d, rejected %d, peak active %d, rerouted %d after faults\n",
		brep.Admitted, brep.Rejected, brep.PeakActive, brep.Rerouted)
	fmt.Printf("  delivered %.2f%% of offered bits, max link utilization %.3f\n",
		brep.DeliveredPct(), lrep.MaxUtilization)
	fmt.Printf("  %s of scenario time in %v of wall time\n",
		bsim.Now().Round(time.Minute), time.Since(wall).Round(time.Millisecond))
}
