package sg

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// CPU is an amount of compute in micro-cores (10⁻⁶ core), the one unit
// every layer sums, compares and transmits CPU in: sums are exact in any
// order, so two layers can never disagree on whether the same demands
// fit. On the wire it is a YANG decimal64 in cores with 6 fraction digits
// (String, ParseCPU).
type CPU int64

// BW is a bandwidth in bit/s, the one unit every layer sums and compares
// bandwidth in.
type BW int64

// CPUOf converts cores to micro-cores, rounding to the nearest one. NaN,
// ±Inf, negative values and values beyond int64 micro-cores are an error.
func CPUOf(cores float64) (CPU, error) { return units[CPU](cores, 1e6, "cpu") }

// BWOf converts bit/s to BW, rounding to the nearest bit/s, with CPUOf's
// range errors.
func BWOf(bps float64) (BW, error) { return units[BW](bps, 1, "bandwidth") }

// units is the one float-to-integer rule behind CPUOf and BWOf.
func units[T CPU | BW](v, scale float64, what string) (T, error) {
	u := math.Round(v * scale)
	if !(v >= 0 && u < 1<<63) { // false for NaN too
		return 0, fmt.Errorf("sg: %s %v is not a finite non-negative amount within int64 units", what, v)
	}
	return T(u), nil
}

// cpuText is a non-negative YANG decimal64 (RFC 7950 §9.3.1) with CPU's 6
// fraction digits: "+"?, digits, then optionally "." and digits.
var cpuText = regexp.MustCompile(`^\+?([0-9]+)(?:\.([0-9]{1,6}))?$`)

// ParseCPU parses cores written as cpuText, with no float on the path.
// Exponents, NaN, Inf and amounts beyond int64 micro-cores are an error.
func ParseCPU(s string) (CPU, error) {
	m := cpuText.FindStringSubmatch(s)
	if m == nil {
		return 0, fmt.Errorf("sg: cpu %q is not a non-negative decimal64 with at most 6 fraction digits", s)
	}
	u, err := strconv.ParseInt(m[1]+(m[2] + "000000")[:6], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sg: cpu %q beyond int64 micro-cores", s)
	}
	return CPU(u), nil
}

// String formats c in cores as a decimal64 without exponent and without
// trailing fraction zeros: "0.5", "2", "0.00001".
func (c CPU) String() string {
	u, sign := uint64(c), ""
	if c < 0 {
		u, sign = -u, "-"
	}
	return sign + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%d.%06d", u/1e6, u%1e6), "0"), ".")
}
