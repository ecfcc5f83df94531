package substrate_test

import (
	"testing"
	"time"

	"escape/internal/flowsim"
	"escape/internal/substrate"
)

// The parallel-player determinism suite: the same seeded trace played
// at workers=1, 2 and 8 must produce bit-identical PlayReports —
// decisions, heal deltas, traffic integrals, everything — on fresh
// simulator/view instances each time. The fault cases exercise
// mid-trace heals (mask transitions) under speculation.

// scaleTrace builds a small multi-region cell and a churny trace with
// optional backbone faults.
func scaleTrace(t *testing.T, faults int) (*substrate.TopoSpec, []substrate.ScenarioEvent) {
	t.Helper()
	spec := substrate.ScaleSpec(substrate.ScaleParams{
		Regions: 4, SwitchesPerRegion: 16,
		SAPsPerRegion: 4, EEsPerRegion: 3,
		BackboneBW: 40e6, RegionBW: 20e6, AccessBW: 10e6,
		EECPU: 64, EEMem: 1 << 16,
	})
	events := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 77, Process: substrate.FlashCrowd, Services: 160,
		Horizon: time.Hour, MeanLifetime: 30 * time.Minute,
		ChainLen: 2, Rate: 1e6, SAPs: spec.SAPNames(), PairPool: 64,
	})
	if faults > 0 {
		events = substrate.WithLinkFaults(events, spec.Links[:4], faults,
			78, time.Hour, 10*time.Minute)
	}
	return spec, events
}

// playWorkers runs one trace on a fresh simulator and view with the
// given worker count.
func playWorkers(t *testing.T, spec *substrate.TopoSpec, events []substrate.ScenarioEvent, workers int) *substrate.PlayReport {
	t.Helper()
	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()
	rv, err := sim.View()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := substrate.PlayScenario(sim, rv, substrate.DefaultMapper(), events, substrate.PlayOptions{
		Traffic: true, HealOnFault: true, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParallelPlayBitIdentical is the core guarantee: worker count
// never changes the report, with and without mid-trace faults/heals.
func TestParallelPlayBitIdentical(t *testing.T) {
	for _, faults := range []int{0, 3} {
		spec, events := scaleTrace(t, faults)
		serial := playWorkers(t, spec, events, 1)
		if serial.Admitted == 0 || serial.Departed == 0 {
			t.Fatalf("faults=%d: degenerate trace (admitted=%d departed=%d)", faults, serial.Admitted, serial.Departed)
		}
		if faults > 0 && serial.Rerouted == 0 {
			t.Fatalf("faults=%d: no re-steering exercised", faults)
		}
		for _, workers := range []int{2, 8} {
			par := playWorkers(t, spec, events, workers)
			if !serial.Equal(par) {
				t.Fatalf("faults=%d workers=%d: report diverges from serial\nserial: adm=%d rej=%d dep=%d heal=%d rr=%d off=%.6f dlv=%.6f\npar:    adm=%d rej=%d dep=%d heal=%d rr=%d off=%.6f dlv=%.6f",
					faults, workers,
					serial.Admitted, serial.Rejected, serial.Departed, serial.HealMoves, serial.Rerouted, serial.OfferedBits, serial.DeliveredBits,
					par.Admitted, par.Rejected, par.Departed, par.HealMoves, par.Rerouted, par.OfferedBits, par.DeliveredBits)
			}
		}
	}
}

// TestParallelPlayCapacityPressure squeezes the same trace through a
// bandwidth-starved cell so rejections and admission/heal contention
// actually occur, then requires worker-count invariance again — this
// is where speculative results go stale and the flip-detection
// fallback has to reproduce the serial decisions.
func TestParallelPlayCapacityPressure(t *testing.T) {
	spec := substrate.ScaleSpec(substrate.ScaleParams{
		Regions: 3, SwitchesPerRegion: 8,
		SAPsPerRegion: 3, EEsPerRegion: 2,
		BackboneBW: 6e6, RegionBW: 4e6, AccessBW: 2e6,
		EECPU: 64, EEMem: 1 << 16,
	})
	events := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 5, Process: substrate.HeavyTailed, Services: 120,
		Horizon: time.Hour, MeanLifetime: 2 * time.Hour,
		ChainLen: 3, Rate: 1e6, SAPs: spec.SAPNames(), PairPool: 16,
	})
	events = substrate.WithLinkFaults(events, spec.Links[:3], 2, 6, time.Hour, 15*time.Minute)

	serial := playWorkers(t, spec, events, 1)
	if serial.Rejected == 0 {
		t.Fatalf("pressure trace rejected nothing (admitted=%d) — capacity not binding", serial.Admitted)
	}
	for _, workers := range []int{2, 8} {
		par := playWorkers(t, spec, events, workers)
		if !serial.Equal(par) {
			t.Fatalf("workers=%d under pressure: report diverges (serial adm=%d rej=%d, par adm=%d rej=%d)",
				workers, serial.Admitted, serial.Rejected, par.Admitted, par.Rejected)
		}
	}
}

// TestPlayScenarioAllocBudget gates the event-loop allocation work the
// scratch reuse bought: steady-state playback must stay under a
// per-event allocation budget (retained state — mappings, decisions,
// flow bookkeeping — dominates; scratch churn must not).
func TestPlayScenarioAllocBudget(t *testing.T) {
	spec, events := scaleTrace(t, 0)
	per := testing.AllocsPerRun(3, func() {
		sim, err := flowsim.New(spec, flowsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		defer sim.Stop()
		rv, err := sim.View()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := substrate.PlayScenario(sim, rv, substrate.DefaultMapper(), events, substrate.PlayOptions{Traffic: true}); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := per / float64(len(events))
	// Measured ~77 allocs/event after the scratch-reuse work (the
	// retained mapping/decision/flow state plus mapper internals); the
	// bound leaves headroom for toolchain drift while still catching a
	// regression to per-event scratch churn.
	if perEvent > 160 {
		t.Fatalf("allocation budget blown: %.1f allocs/event (budget 160, whole-run %.0f over %d events)",
			perEvent, per, len(events))
	}
	t.Logf("play allocations: %.1f/event (%.0f total, %d events)", perEvent, per, len(events))
}
