package substrate_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"escape/internal/substrate"
)

// TestDecisionDigest pins every decision of a seeded admission replay
// under contention: a 4-region ScaleSpec cell, 1 500 Zipf-paired
// arrivals sized so about one in eight is rejected, and two backbone
// faults healed in place (HealOnFault). The counts and a SHA-256 over
// every placement, route, heal move and heal route are fixed values, so
// any change to the mapper, the path engine or the resource view's
// accounting that moves one decision fails here, inside `go test ./...`.
func TestDecisionDigest(t *testing.T) {
	const (
		regions  = 4
		switches = 32 // per region
		eesPer   = 4
		services = 1500
		chainLen = 3
		nfCPU    = 0.125 // PlayOptions' default NF demand
	)
	spec := substrate.ScaleSpec(substrate.ScaleParams{
		Regions: regions, SwitchesPerRegion: switches,
		SAPsPerRegion: 6, EEsPerRegion: eesPer,
		BackboneBW: 250e6, RegionBW: 150e6, AccessBW: 100e9,
		// Half of what all generated services together would need.
		EECPU: float64(services*chainLen) * nfCPU / 2 / (regions * eesPer),
		EEMem: 1 << 30,
	})
	events := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 1, Process: substrate.Diurnal, Services: services,
		Horizon: time.Hour, MeanLifetime: 15 * time.Minute, ChainLen: chainLen,
		Rate: 1e6, SAPs: spec.SAPNames(), PairPool: 512,
	})
	events = substrate.WithLinkFaults(events, spec.Links[:regions], 2, 2, time.Hour, 3*time.Minute)

	rep := playWorkers(t, spec, events, 1)
	got := fmt.Sprintf("admitted=%d rejected=%d rerouted=%d digest=%s",
		rep.Admitted, rep.Rejected, rep.Rerouted, decisionDigest(rep))
	const want = "admitted=1318 rejected=182 rerouted=155 digest=1ffc84e9b2d9bf6f5d0bc6169ebacc6e62ff3ee503842d99ed4aa49a1f240977"
	if got != want {
		t.Fatalf("decisions moved:\n got  %s\n want %s", got, want)
	}
}

// decisionDigest hashes a report's decisions in service-name order, each
// map in key order, so the digest is a function of the decisions alone.
func decisionDigest(rep *substrate.PlayReport) string {
	h := sha256.New()
	names := make([]string, 0, len(rep.Decisions))
	for n := range rep.Decisions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := rep.Decisions[n]
		fmt.Fprintf(h, "service %s\n", n)
		writeSorted(h, "place", d.Placements)
		writeRoutes(h, "route", d.Routes)
		writeSorted(h, "heal-move", d.HealMoves)
		writeRoutes(h, "heal-route", d.HealRoutes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeSorted(w io.Writer, tag string, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %s\n", tag, k, m[k])
	}
}

func writeRoutes(w io.Writer, tag string, m map[string][]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %s\n", tag, k, strings.Join(m[k], ">"))
	}
}
