package flowsim

import (
	"math"
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/substrate"
)

func lineSpec(bw float64, loss float64) *substrate.TopoSpec {
	return &substrate.TopoSpec{
		Name:     "line",
		Switches: []string{"s1", "s2"},
		Hosts: []netem.HostSpec{
			{Name: "h1", Switch: "s1"},
			{Name: "h2", Switch: "s2"},
		},
		EEs: []netem.EESpec{
			{Name: "ee-s1", Switch: "s1", CPU: 8, Mem: 1024},
		},
		Links: []netem.LinkSpec{
			{A: "s1", B: "s2", Bandwidth: bw, Loss: loss, Delay: time.Millisecond},
		},
	}
}

func mustSim(t *testing.T, spec *substrate.TopoSpec) *Sim {
	t.Helper()
	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUncongestedFlowDeliversEverything(t *testing.T) {
	s := mustSim(t, lineSpec(10e6, 0))
	if err := s.StartFlow(substrate.FlowSpec{
		ID: "f1", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(10 * time.Second)
	st, err := s.StopFlow("f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.OfferedBits != 1e7 {
		t.Fatalf("offered %v, want 1e7", st.OfferedBits)
	}
	if math.Abs(st.DeliveredBits-st.OfferedBits) > 1e-6*st.OfferedBits {
		t.Fatalf("delivered %v, want ≈ offered %v", st.DeliveredBits, st.OfferedBits)
	}
	if st.AvgDelay < time.Millisecond {
		t.Fatalf("delay %v should include 1ms propagation", st.AvgDelay)
	}
}

func TestOverloadSharesCapacityProportionally(t *testing.T) {
	s := mustSim(t, lineSpec(10e6, 0))
	for _, id := range []string{"f1", "f2"} {
		if err := s.StartFlow(substrate.FlowSpec{
			ID: id, SrcSAP: "h1", DstSAP: "h2",
			Route: []string{"s1", "s2"}, Rate: 8e6,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceTo(10 * time.Second)
	st, err := s.StopFlow("f1")
	if err != nil {
		t.Fatal(err)
	}
	// Offered 16 Mb/s on a 10 Mb/s link: each flow delivers 10/16.
	want := st.OfferedBits * 10.0 / 16.0
	if math.Abs(st.DeliveredBits-want) > 1e-6*want {
		t.Fatalf("delivered %v, want %v", st.DeliveredBits, want)
	}
	rep := s.Report()
	if rep.MaxUtilization < 1.5 || rep.Overloaded == 0 {
		t.Fatalf("report should show overload: %+v", rep)
	}
}

func TestStaticLossMultiplies(t *testing.T) {
	s := mustSim(t, lineSpec(0, 0.25))
	if err := s.StartFlow(substrate.FlowSpec{
		ID: "f1", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(4 * time.Second)
	st, _ := s.StopFlow("f1")
	want := st.OfferedBits * 0.75
	if math.Abs(st.DeliveredBits-want) > 1e-6*want {
		t.Fatalf("delivered %v, want %v", st.DeliveredBits, want)
	}
}

func TestLinkDownCostsDownFraction(t *testing.T) {
	s := mustSim(t, lineSpec(10e6, 0))
	if err := s.StartFlow(substrate.FlowSpec{
		ID: "f1", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(5 * time.Second)
	if err := s.FailLink("s1", "s2"); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(8 * time.Second)
	if err := s.HealLink("s1", "s2"); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(10 * time.Second)
	st, _ := s.StopFlow("f1")
	// Down for 3s of a 10s life: 70% delivered.
	want := st.OfferedBits * 0.7
	if math.Abs(st.DeliveredBits-want) > 1e-6*want {
		t.Fatalf("delivered %v, want %v", st.DeliveredBits, want)
	}
}

func TestQueueingDelayFollowsMM1(t *testing.T) {
	s := mustSim(t, lineSpec(10e6, 0))
	if err := s.StartFlow(substrate.FlowSpec{
		ID: "f1", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 5e6, // ρ = 0.5
	}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(10 * time.Second)
	st, _ := s.StopFlow("f1")
	// S = 8000 bits / 10 Mb/s = 0.8 ms; W = S·ρ/(1-ρ) = 0.8 ms.
	want := time.Millisecond + 800*time.Microsecond
	diff := st.AvgDelay - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 50*time.Microsecond {
		t.Fatalf("avg delay %v, want ≈ %v", st.AvgDelay, want)
	}
}

func TestDeterministicByConstruction(t *testing.T) {
	run := func() substrate.FlowStats {
		s := mustSim(t, lineSpec(10e6, 0.01))
		for i, id := range []string{"a", "b", "c"} {
			s.AdvanceTo(time.Duration(i) * time.Second)
			if err := s.StartFlow(substrate.FlowSpec{
				ID: id, SrcSAP: "h1", DstSAP: "h2",
				Route: []string{"s1", "s2"}, Rate: 6e6,
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.AdvanceTo(7 * time.Second)
		s.FailLink("s1", "s2")
		s.AdvanceTo(8 * time.Second)
		s.HealLink("s1", "s2")
		s.AdvanceTo(12 * time.Second)
		st, err := s.StopFlow("b")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.DeliveredBits <= 0 || a.DeliveredBits >= a.OfferedBits {
		t.Fatalf("congested+lossy flow should deliver partially: %+v", a)
	}
}

func TestUnknownRouteRejected(t *testing.T) {
	s := mustSim(t, lineSpec(10e6, 0))
	err := s.StartFlow(substrate.FlowSpec{
		ID: "f1", Route: []string{"s1", "nope"}, Rate: 1e6,
	})
	if err == nil {
		t.Fatal("route over unknown link must fail")
	}
}
