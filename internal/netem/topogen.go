package netem

import (
	"fmt"
)

// Topology generators mirroring Mininet's built-in topologies
// (--topo single/linear) plus a k-ary fat-tree, used by the scale
// experiments (E3) and the examples.

// BuildSingle creates one switch with n hosts: h1..hn — s1.
func BuildSingle(net_ *Network, n int) error {
	if n < 1 {
		return fmt.Errorf("netem: single topology needs ≥1 host")
	}
	if _, err := net_.AddSwitch("s1"); err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		h := fmt.Sprintf("h%d", i)
		if _, err := net_.AddHost(h); err != nil {
			return err
		}
		if _, err := net_.AddLink(h, "s1", LinkConfig{}); err != nil {
			return err
		}
	}
	return nil
}

// BuildLinear creates n switches in a chain, one host per switch:
// h1—s1—s2—…—sn—hn.
func BuildLinear(net_ *Network, n int) error {
	if n < 1 {
		return fmt.Errorf("netem: linear topology needs ≥1 switch")
	}
	for i := 1; i <= n; i++ {
		s := fmt.Sprintf("s%d", i)
		h := fmt.Sprintf("h%d", i)
		if _, err := net_.AddSwitch(s); err != nil {
			return err
		}
		if _, err := net_.AddHost(h); err != nil {
			return err
		}
		if _, err := net_.AddLink(h, s, LinkConfig{}); err != nil {
			return err
		}
		if i > 1 {
			if _, err := net_.AddLink(fmt.Sprintf("s%d", i-1), s, LinkConfig{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildFatTree creates a k-ary fat-tree (Al-Fares et al.): (k/2)² core
// switches c1…, k pods of k/2 aggregation (p<i>a<j>) and k/2 edge
// (p<i>e<j>) switches, and k/2 hosts per edge switch (p<i>e<j>h<m>).
// k must be even and ≥ 2. The classic data-center substrate for the
// scale scenarios: k=4 yields 20 switches and 16 hosts.
func BuildFatTree(net_ *Network, k int) error {
	if k < 2 || k%2 != 0 {
		return fmt.Errorf("netem: fat-tree needs even k ≥ 2, got %d", k)
	}
	half := k / 2
	cores := make([]string, half*half)
	for i := range cores {
		cores[i] = fmt.Sprintf("c%d", i+1)
		if _, err := net_.AddSwitch(cores[i]); err != nil {
			return err
		}
	}
	for p := 0; p < k; p++ {
		aggs := make([]string, half)
		for j := 0; j < half; j++ {
			aggs[j] = fmt.Sprintf("p%da%d", p, j+1)
			if _, err := net_.AddSwitch(aggs[j]); err != nil {
				return err
			}
			// Aggregation switch j uplinks to core group j.
			for m := 0; m < half; m++ {
				if _, err := net_.AddLink(aggs[j], cores[j*half+m], LinkConfig{}); err != nil {
					return err
				}
			}
		}
		for j := 0; j < half; j++ {
			edge := fmt.Sprintf("p%de%d", p, j+1)
			if _, err := net_.AddSwitch(edge); err != nil {
				return err
			}
			for _, agg := range aggs {
				if _, err := net_.AddLink(edge, agg, LinkConfig{}); err != nil {
					return err
				}
			}
			for m := 0; m < half; m++ {
				h := fmt.Sprintf("%sh%d", edge, m+1)
				if _, err := net_.AddHost(h); err != nil {
					return err
				}
				if _, err := net_.AddLink(h, edge, LinkConfig{}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
