package substrate

import (
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
)

// linear is netem's linear description of n switches.
func linear(t *testing.T, n int, s netem.Sizing) *TopoSpec {
	t.Helper()
	spec, err := netem.Linear(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestNetemSubstrateTrafficSmoke runs a real packet flow end to end over
// the emulated backend with l2_learning forwarding.
func TestNetemSubstrateTrafficSmoke(t *testing.T) {
	spec := linear(t, 2, netem.Sizing{EECPU: 8, EEMem: 1024})
	sub, err := NewNetem(spec, NetemOptions{Learning: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	defer sub.Stop()
	if err := sub.StartFlow(FlowSpec{
		ID: "f1", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 4e6, FrameSize: 500,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	st, err := sub.StopFlow("f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.OfferedBits <= 0 || st.DeliveredBits <= 0 {
		t.Fatalf("flow moved no traffic: %+v", st)
	}
	if st.DeliveredBits > st.OfferedBits {
		t.Fatalf("delivered more than offered: %+v", st)
	}
}

// TestNetemFlowsCountOwnFrames: a flow started after another stopped
// counts only its own frames, though it takes the stopped flow's port
// slot to the same host while a third flow to that host still runs. A
// count inherited from the earlier flow, or shared with the running one,
// reads as more delivered than offered.
func TestNetemFlowsCountOwnFrames(t *testing.T) {
	spec := linear(t, 2, netem.Sizing{EECPU: 8, EEMem: 1024})
	sub, err := NewNetem(spec, NetemOptions{Learning: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	defer sub.Stop()
	start := func(id string) {
		t.Helper()
		if err := sub.StartFlow(FlowSpec{
			ID: id, SrcSAP: "h1", DstSAP: "h2",
			Route: []string{"s1", "s2"}, Rate: 4e6, FrameSize: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := func(id string) FlowStats {
		t.Helper()
		st, err := sub.StopFlow(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.DeliveredBits > st.OfferedBits {
			t.Errorf("flow %s delivered more than it offered: %+v", id, st)
		}
		return st
	}
	start("a")
	start("b")
	time.Sleep(60 * time.Millisecond)
	if st := stop("a"); st.DeliveredBits <= 0 {
		t.Fatalf("flow a moved no traffic: %+v", st)
	}
	start("d") // a's slot in the flow count, to the same host as a and b
	time.Sleep(5 * time.Millisecond)
	stop("d")
	stop("b")
}

// TestNetemSubstrateFailHealLink verifies link fault injection reaches
// the emulation: FailLink cuts the link and HealLink restores it.
func TestNetemSubstrateFailHealLink(t *testing.T) {
	spec := linear(t, 3, netem.Sizing{EECPU: 8, EEMem: 1024})
	sub, err := NewNetem(spec, NetemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.FailLink("s1", "s2"); err != nil {
		t.Fatal(err)
	}
	if l := sub.net.FindLink("s1", "s2"); l == nil || !l.Failed() {
		t.Fatal("link not failed in the emulation")
	}
	if err := sub.HealLink("s1", "s2"); err != nil {
		t.Fatal(err)
	}
	if sub.net.FindLink("s1", "s2").Failed() {
		t.Fatal("link still failed in the emulation after HealLink")
	}
}

// TestGenerateWorkloadDeterministicAndShaped checks the scenario
// generators: deterministic per seed, right event counts, sorted, and
// arrival shapes distinguishable (flash crowd concentrates arrivals).
func TestGenerateWorkloadDeterministicAndShaped(t *testing.T) {
	saps := []string{"h1", "h2", "h3", "h4"}
	for _, proc := range []ArrivalProcess{Diurnal, FlashCrowd, HeavyTailed} {
		p := WorkloadParams{
			Seed: 42, Process: proc, Services: 200,
			Horizon: time.Hour, MeanLifetime: 5 * time.Minute,
			ChainLen: 2, Rate: 1e6, SAPs: saps,
		}
		a := GenerateWorkload(p)
		b := GenerateWorkload(p)
		if len(a) != 400 {
			t.Fatalf("%s: %d events, want 400", proc, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at event %d", proc, i)
			}
			if i > 0 && a[i].At < a[i-1].At {
				t.Fatalf("%s: events unsorted at %d", proc, i)
			}
			if a[i].Kind == Arrive && a[i].SrcSAP == a[i].DstSAP {
				t.Fatalf("%s: self-pair at %d", proc, i)
			}
		}
		if c := GenerateWorkload(WorkloadParams{
			Seed: 43, Process: proc, Services: 200,
			Horizon: time.Hour, MeanLifetime: 5 * time.Minute,
			ChainLen: 2, Rate: 1e6, SAPs: saps,
		}); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
			t.Fatalf("%s: different seeds produced identical prefix", proc)
		}
	}

	// Flash crowds must concentrate: some 2%-of-horizon window holds far
	// more than 2% of arrivals.
	events := GenerateWorkload(WorkloadParams{
		Seed: 7, Process: FlashCrowd, Services: 1000,
		Horizon: time.Hour, MeanLifetime: time.Minute,
		ChainLen: 1, Rate: 1e6, SAPs: saps,
	})
	window := time.Hour / 50
	best := 0
	for start := time.Duration(0); start < time.Hour; start += window / 2 {
		n := 0
		for _, ev := range events {
			if ev.Kind == Arrive && ev.At >= start && ev.At < start+window {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	if best < 100 { // ≥10% of arrivals in one 2% window
		t.Fatalf("flash crowd did not concentrate: best window holds %d/1000", best)
	}
}

// TestHeavyTailedLifetimes checks the Pareto draw produces a heavy tail:
// the max lifetime dwarfs the median.
func TestHeavyTailedLifetimes(t *testing.T) {
	events := GenerateWorkload(WorkloadParams{
		Seed: 11, Process: HeavyTailed, Services: 500,
		Horizon: time.Hour, MeanLifetime: time.Minute,
		ChainLen: 1, Rate: 1e6, SAPs: []string{"h1", "h2"},
	})
	lifetimes := map[string]time.Duration{}
	for _, ev := range events {
		switch ev.Kind {
		case Arrive:
			lifetimes[ev.Service] = -ev.At
		case Depart:
			lifetimes[ev.Service] += ev.At
		}
	}
	var max, sum time.Duration
	for _, l := range lifetimes {
		if l > max {
			max = l
		}
		sum += l
	}
	mean := sum / time.Duration(len(lifetimes))
	if max < 10*mean {
		t.Fatalf("tail too light: max %v vs mean %v", max, mean)
	}
}

// TestScaleSpecShape sanity-checks the operator-scale generator at a
// reduced size: switch/link/SAP/EE counts and spec validity.
func TestScaleSpecShape(t *testing.T) {
	p := ScaleParams{
		Regions: 4, SwitchesPerRegion: 64,
		SAPsPerRegion: 3, EEsPerRegion: 2,
		BackboneBW: 1e9, RegionBW: 1e9, AccessBW: 1e9,
		EECPU: 64, EEMem: 1 << 16,
	}
	spec := ScaleSpec(p)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Switches); got != 256 {
		t.Fatalf("switches %d, want 256", got)
	}
	if got := len(spec.Hosts); got != 12 {
		t.Fatalf("hosts %d, want 12", got)
	}
	if got := len(spec.EEs); got != 8 {
		t.Fatalf("EEs %d, want 8", got)
	}
	// Sparse: links ≈ 2× switches, never fat-tree dense.
	if got := len(spec.Links); got > 3*len(spec.Switches) {
		t.Fatalf("links %d too dense for %d switches", got, len(spec.Switches))
	}
	// The view must be mappable end to end.
	rv, err := core.ViewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	events := GenerateWorkload(WorkloadParams{
		Seed: 1, Process: Diurnal, Services: 20,
		Horizon: time.Minute, MeanLifetime: 10 * time.Second,
		ChainLen: 2, Rate: 1e6, SAPs: spec.SAPNames(),
	})
	sub, err := NewNetem(spec, NetemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := PlayScenario(sub, rv, DefaultMapper(), events, PlayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted == 0 {
		t.Fatalf("no admissions on scale spec: %+v", rep)
	}
}
