// Corpus for the tolerantio discard rule: errors from control-plane
// calls must be looked at — a bare call statement silently loses the
// only evidence that a switch or agent is dead.
package tolerantio

import (
	"netconf"
	"vnfagent"
)

// Regression: the silent-discard teardown — every Stop error vanished,
// so a half-dead EE looked cleanly undeployed.
func undeployAll(c *vnfagent.Client, ids []string) {
	for _, id := range ids {
		c.StopVNF(id)       // want `error from control-plane call Client.StopVNF silently discarded`
		c.DisconnectVNF(id) // want `error from control-plane call Client.DisconnectVNF silently discarded`
	}
}

// The sanctioned escape hatch: an explicit blank assignment with a
// reason is visible in review.
func undeployTolerant(c *vnfagent.Client, ids []string) {
	for _, id := range ids {
		// Best-effort: the EE may already be gone; the skip is logged
		// by the caller.
		_ = c.StopVNF(id)
	}
}

func handled(c *vnfagent.Client, id string) error {
	if err := c.StopVNF(id); err != nil {
		return err
	}
	return c.DisconnectVNF(id)
}

// Close is exempt: shutdown closes best-effort everywhere.
func shutdown(c *vnfagent.Client) {
	c.Close()
}

// Methods without an error result are not control-plane RPC discards.
func caps(c *vnfagent.Client) {
	c.ServerCaps()
}

func poolDiscard(p *vnfagent.Pool) {
	p.Do(func(c *vnfagent.Client) error { // want `error from control-plane call Pool.Do silently discarded`
		return nil
	})
}

func suppressedDiscard(c *vnfagent.Client, id string) {
	//lint:ignore tolerantio stop is advisory on this demo path
	c.StopVNF(id)
}

// Regression: a release flight whose error is dropped loses every
// stop's outcome at once, and Pool.Do can no longer tell a broken
// session from a refusal.
func releaseFlight(c *vnfagent.Client, ids []string) {
	var ops []*netconf.Data
	for _, id := range ids {
		ops = append(ops, vnfagent.StopVNFOp(id))
	}
	c.Calls(ops...) // want `error from control-plane call Client.Calls silently discarded`
}

func bareFlight(c *netconf.Client, op *netconf.Data) {
	c.Calls(op, op) // want `error from control-plane call Client.Calls silently discarded`
}

// A flight whose replies are classified one by one is handled.
func classifiedFlight(c *vnfagent.Client, ops []*netconf.Data) error {
	replies, err := c.Calls(ops...)
	for _, reply := range replies {
		_ = netconf.ReplyError(reply)
	}
	return err
}
