package sg

import (
	"math"
	"strings"
	"testing"
)

func TestCPUOfRoundsAndRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		cores float64
		want  CPU
	}{
		{0, 0}, {0.1, 100_000}, {0.3, 300_000}, {1.0000004, 1_000_000}, {1.0000005, 1_000_001},
		{2.5, 2_500_000}, {1 << 20, 1 << 20 * 1_000_000},
	} {
		if got, err := CPUOf(c.cores); err != nil || got != c.want {
			t.Errorf("CPUOf(%v) = %d, %v; want %d", c.cores, got, err, c.want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1e300, 9.3e12} {
		if got, err := CPUOf(bad); err == nil {
			t.Errorf("CPUOf(%v) = %d, want an error", bad, got)
		}
	}
	if got, err := BWOf(3e9 * 10000 / 30000); err != nil || got != 1e9 {
		t.Errorf("BWOf(1e9) = %d, %v", got, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1, 1e300} {
		if got, err := BWOf(bad); err == nil {
			t.Errorf("BWOf(%v) = %d, want an error", bad, got)
		}
	}
}

func TestParseCPU(t *testing.T) {
	for text, want := range map[string]CPU{
		"0": 0, "0.1": 100_000, "+0.1": 100_000, "99": 99_000_000, "007.50": 7_500_000,
		"0.000001": 1, "1.234567": 1_234_567, "9223372036854.775807": math.MaxInt64,
	} {
		if got, err := ParseCPU(text); err != nil || got != want {
			t.Errorf("ParseCPU(%q) = %d, %v; want %d", text, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "NaN", "+Inf", "Inf", "1e300", "1e-7", "0x1p-2", "0.1234567", "-1", "-0",
		".5", "1.", "+", "1.2.3", " 1", "1 ", "9223372036854.775808", "99999999999999999999",
	} {
		if got, err := ParseCPU(bad); err == nil {
			t.Errorf("ParseCPU(%q) = %d, want an error", bad, got)
		}
	}
}

func TestCPUString(t *testing.T) {
	for c, want := range map[CPU]string{
		0: "0", 100_000: "0.1", 2_000_000: "2", 10: "0.00001", 1_234_567: "1.234567",
		-1_500_000: "-1.5", math.MaxInt64: "9223372036854.775807", math.MinInt64: "-9223372036854.775808",
	} {
		if got := c.String(); got != want {
			t.Errorf("CPU(%d).String() = %q, want %q", int64(c), got, want)
		}
	}
}

// TestValidateAcceptsWholeMicroCores: six fraction digits of CPU are a
// demand; bandwidth demands round, as capacities do.
func TestValidateAcceptsWholeMicroCores(t *testing.T) {
	g := NewChainGraph("svc", "firewall")
	g.NFs[0].CPU = 0.123456
	g.Links[0].Bandwidth = 1.5
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// FuzzParseCPU: every text the parser accepts formats back, as a decimal64
// without exponent, to a text that parses to the same amount.
func FuzzParseCPU(f *testing.F) {
	for _, s := range []string{"0", "0.1", "+2.5", "0.000001", "1e-7", "NaN", "9223372036854.775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseCPU(text)
		if err != nil {
			return
		}
		s := c.String()
		if strings.ContainsAny(s, "eE+") || strings.HasPrefix(s, ".") || strings.HasSuffix(s, ".") {
			t.Fatalf("%q → %d formats as %q, not a plain decimal64", text, int64(c), s)
		}
		if back, err := ParseCPU(s); err != nil || back != c {
			t.Fatalf("%q → %d → %q → %d, %v", text, int64(c), s, int64(back), err)
		}
	})
}

// FuzzGraphFromJSON: FromJSON never panics, an accepted graph's ToJSON is
// accepted again, and the second round trip reproduces the bytes.
func FuzzGraphFromJSON(f *testing.F) {
	g := NewChainGraph("svc", "firewall", "nat")
	g.NFs[0].CPU = 0.25
	g.Links[1].Bandwidth = 1e6
	g.Reqs = []*Requirement{{ID: "r", From: "sap1", To: "sap2", MaxDelay: 5e6}}
	seed, _ := g.ToJSON()
	f.Add(seed)
	f.Add([]byte(`{"name":"x","saps":[{"id":"a"},{"id":"b"}],"nfs":[{"id":"n","type":"t","cpu":1e300}],` +
		`"links":[{"id":"l1","src":{"node":"a"},"dst":{"node":"n","port":"in"}},{"id":"l2","src":{"node":"n","port":"out"},"dst":{"node":"b"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromJSON(data)
		if err != nil {
			return
		}
		first, err := g.ToJSON()
		if err != nil {
			t.Fatalf("accepted graph does not serialize: %v", err)
		}
		g2, err := FromJSON(first)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", first, err)
		}
		second, err := g2.ToJSON()
		if err != nil || string(second) != string(first) {
			t.Fatalf("second round trip differs (%v):\n%s\n%s", err, first, second)
		}
	})
}
