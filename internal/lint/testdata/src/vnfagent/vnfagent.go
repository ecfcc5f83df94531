// Package vnfagent is a structural stand-in for escape/internal/vnfagent
// (the tolerantio analyzer matches by package and type name).
package vnfagent

import "netconf"

// Client embeds the NETCONF session as the real one does, so a flight
// (Calls) is a promoted netconf.Client method.
type Client struct{ *netconf.Client }

func (c *Client) StopVNF(id string) error       { return nil }
func (c *Client) DisconnectVNF(id string) error { return nil }
func (c *Client) DeployVNF(id, ee string) error { return nil }
func (c *Client) Close() error                  { return nil }
func (c *Client) ServerCaps() []string          { return nil }

func StopVNFOp(id string) *netconf.Data { return nil }

type Pool struct{}

func (p *Pool) Do(f func(*Client) error) error { return nil }
func (p *Pool) Close()                         {}
