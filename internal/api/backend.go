// Package api is the multi-tenant control plane over the orchestration
// layer: a versioned HTTP/JSON API (escaped) through which tenants
// declare desired service graphs as durable intents, plus the
// reconciliation controller that converges the orchestrator's actual
// state toward them. Tenants authenticate with bearer tokens, are
// confined to per-tenant resource quotas (enforced at admission time
// through the resource view's commit gate) and disjoint VLAN tag
// blocks, and are throttled by per-tenant token buckets in front of a
// bounded admission queue.
package api

import (
	"escape/internal/core"
	"escape/internal/sg"
)

// Backend is the slice of an orchestrator the control plane needs: the
// reconciler deploys and undeploys through it and probes actual state
// with Running/Deployed, and reacts to its lifecycle transitions.
type Backend interface {
	// Deploy realizes a service graph end to end.
	Deploy(g *sg.Graph) error
	// Undeploy tears a running service down. Undeploying a name that is
	// not deployed is an error (callers check Deployed first).
	Undeploy(name string) error
	// Deployed reports whether the name is registered at all (any
	// lifecycle state, including a deploy still in flight).
	Deployed(name string) bool
	// Running reports whether the service is fully up and steered.
	Running(name string) bool
	// Services lists deployed service names (the reconciler's orphan
	// sweep walks it).
	Services() []string
	// OnTransition calls fn on every lifecycle transition, so the
	// reconciler reacts to drift (e.g. a heal that gave up) as it
	// happens. fn must not block (see core.Orchestrator.OnTransition).
	// The returned func cancels the registration.
	OnTransition(fn func(core.Event)) (cancel func())
}

// CoreBackend adapts *core.Orchestrator.
type CoreBackend struct {
	Orch *core.Orchestrator
}

func (b *CoreBackend) Deploy(g *sg.Graph) error {
	_, err := b.Orch.Deploy(g)
	return err
}

func (b *CoreBackend) Undeploy(name string) error { return b.Orch.Undeploy(name) }

func (b *CoreBackend) Deployed(name string) bool { return b.Orch.Service(name) != nil }

func (b *CoreBackend) Running(name string) bool {
	svc := b.Orch.Service(name)
	return svc != nil && svc.State() == core.StateRunning
}

func (b *CoreBackend) Services() []string { return b.Orch.Services() }

func (b *CoreBackend) OnTransition(fn func(core.Event)) func() { return b.Orch.OnTransition(fn) }
