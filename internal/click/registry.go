package click

import (
	"fmt"
	"sync"
)

// The element registry maps class names to constructors. It is the
// extension point ESCAPE's VNF catalog uses to add domain elements
// (HeaderCompressor, Firewall, …) without modifying the engine.

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Element{}
)

// RegisterElement makes a class available to configurations. It panics on
// duplicate registration: class name clashes are programmer errors.
func RegisterElement(class string, ctor func() Element) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[class]; dup {
		panic(fmt.Sprintf("click: duplicate element class %q", class))
	}
	registry[class] = ctor
}

// newElement instantiates a registered class.
func newElement(class string) (Element, error) {
	registryMu.RLock()
	ctor, ok := registry[class]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("click: unknown element class %q", class)
	}
	return ctor(), nil
}
