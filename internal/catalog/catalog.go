package catalog

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"escape/internal/sg"
)

// VNFType is one catalog entry: a named, parameterized VNF template.
type VNFType struct {
	// Name identifies the type in service graphs ("firewall").
	Name string
	// Description for GUIs and docs.
	Description string
	// Ports are the device names the rendered config exposes, in order
	// (the SG mapper connects them to switches in this order).
	Ports []string
	// DefaultCPU/DefaultMem are resource demands when the SG does not
	// override them (100_000 micro-cores is 0.1 core).
	DefaultCPU sg.CPU
	DefaultMem int
	// Params documents accepted template parameters with defaults.
	Params map[string]string
	// Monitors lists the handler specs a dashboard should poll for this
	// type ("rx.count", "fw.dropped", …).
	Monitors []string
	// render produces the Click configuration.
	render func(p map[string]string) (string, error)
}

// Render produces the Click configuration for this type with the given
// parameters (missing ones default per Params). Parameter values come from
// tenants and are pasted into the template, so each must pass its
// parameter's check first: a value that could close the element's argument
// list and wire elements of its own is refused.
func (t *VNFType) Render(params map[string]string) (string, error) {
	merged := map[string]string{}
	for k, v := range t.Params {
		merged[k] = v
	}
	for k, v := range params {
		if _, known := t.Params[k]; !known {
			return "", fmt.Errorf("catalog: %s has no parameter %q", t.Name, k)
		}
		merged[k] = v
	}
	for k, v := range merged {
		check, ok := paramChecks[k]
		if !ok {
			return "", fmt.Errorf("catalog: %s parameter %q has no check", t.Name, k)
		}
		if err := check(v); err != nil {
			return "", fmt.Errorf("catalog: %s parameter %s=%q: %w", t.Name, k, v, err)
		}
	}
	return t.render(merged)
}

// paramChecks holds the kind of every template parameter, by name.
var paramChecks = map[string]func(string) error{
	"QUEUE":     isInteger,
	"REFRESH":   isInteger,
	"RATE":      isNumber,
	"PUBLIC":    isIPv4,
	"VIP":       isIPv4,
	"BACKENDS":  isIPv4List,
	"DROP":      isBool,
	"RULES":     isArgText(""),
	"SIGNATURE": isArgText(","),
}

func isInteger(v string) error {
	if _, err := strconv.Atoi(v); err != nil {
		return fmt.Errorf("not an integer")
	}
	return nil
}

func isNumber(v string) error {
	if f, err := strconv.ParseFloat(v, 64); err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("not a finite number")
	}
	return nil
}

func isIPv4(v string) error {
	if a, err := netip.ParseAddr(v); err != nil || !a.Is4() {
		return fmt.Errorf("not an IPv4 address")
	}
	return nil
}

func isIPv4List(v string) error {
	for _, a := range strings.Split(v, ",") {
		if isIPv4(strings.TrimSpace(a)) != nil {
			return fmt.Errorf("not a comma-separated list of IPv4 addresses")
		}
	}
	return nil
}

// isBool accepts the words DPI's DROP reads as a boolean.
func isBool(v string) error {
	switch strings.ToLower(v) {
	case "true", "false", "1", "0", "yes", "no":
		return nil
	}
	return fmt.Errorf("not a boolean")
}

// clickStructure is every character sequence the Click lexer or argument
// splitter reads as structure rather than as argument text.
var clickStructure = []string{"(", ")", ";", `"`, `\`, "\n", "\r", "->", "::", "//", "/*"}

// isArgText checks free text pasted into an element's argument list: it
// may contain nothing in clickStructure, nor any of also.
func isArgText(also string) func(string) error {
	return func(v string) error {
		for _, s := range clickStructure {
			if strings.Contains(v, s) {
				return fmt.Errorf("contains %q", s)
			}
		}
		if i := strings.IndexAny(v, also); i >= 0 {
			return fmt.Errorf("contains %q", v[i:i+1])
		}
		return nil
	}
}

// Catalog is a set of VNF types. The zero value is unusable; use New or
// Default.
type Catalog struct {
	types map[string]*VNFType
}

// newCatalog returns an empty catalog.
func newCatalog() *Catalog { return &Catalog{types: map[string]*VNFType{}} }

// register adds a type; duplicate names are programmer errors.
func (c *Catalog) register(t *VNFType) {
	if _, dup := c.types[t.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate VNF type %q", t.Name))
	}
	c.types[t.Name] = t
}

// Lookup returns a type by name.
func (c *Catalog) Lookup(name string) (*VNFType, error) {
	t, ok := c.types[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown VNF type %q", name)
	}
	return t, nil
}

// Names returns the sorted type names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.types))
	for n := range c.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns the built-in catalog: ESCAPE's "VNF catalog, a built-in
// set of useful VNFs implemented in Click".
func Default() *Catalog {
	c := newCatalog()
	c.register(&VNFType{
		Name:        "simpleForwarder",
		Description: "Forwards frames between its two ports, counting traffic.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"rx.count", "tx.count"},
		DefaultCPU:  100_000, DefaultMem: 32,
		Params: map[string]string{"QUEUE": "1000"},
		render: func(p map[string]string) (string, error) {
			return fmt.Sprintf(
				"FromDevice(in) -> rx :: Counter -> Queue(%s) -> tx :: Counter -> ToDevice(out);",
				p["QUEUE"]), nil
		},
	})
	c.register(&VNFType{
		Name:        "headerCompressor",
		Description: "Toy ROHC: compresses IPv4/UDP headers into per-flow contexts.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"comp.compressed", "comp.contexts", "rx.count", "tx.count"},
		DefaultCPU:  200_000, DefaultMem: 64,
		Params: map[string]string{"REFRESH": "64"},
		render: func(p map[string]string) (string, error) {
			return fmt.Sprintf(
				"FromDevice(in) -> rx :: Counter -> comp :: HeaderCompressor(REFRESH %s) -> Queue(1000) -> tx :: Counter -> ToDevice(out);",
				p["REFRESH"]), nil
		},
	})
	c.register(&VNFType{
		Name:        "headerDecompressor",
		Description: "Restores frames compressed by headerCompressor.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"decomp.restored", "decomp.unknown_context", "rx.count", "tx.count"},
		DefaultCPU:  200_000, DefaultMem: 64,
		Params: map[string]string{},
		render: func(p map[string]string) (string, error) {
			return "FromDevice(in) -> rx :: Counter -> decomp :: HeaderDecompressor -> Queue(1000) -> tx :: Counter -> ToDevice(out);", nil
		},
	})
	c.register(&VNFType{
		Name:        "firewall",
		Description: "Stateless ACL, first match wins, implicit deny.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"fw.passed", "fw.dropped", "tx.count"},
		DefaultCPU:  200_000, DefaultMem: 64,
		Params: map[string]string{"RULES": "allow -"},
		render: func(p map[string]string) (string, error) {
			rules := strings.TrimSpace(p["RULES"])
			if rules == "" {
				return "", fmt.Errorf("catalog: firewall needs RULES")
			}
			return fmt.Sprintf(
				"FromDevice(in) -> fw :: Firewall(%s) -> Queue(1000) -> tx :: Counter -> ToDevice(out);",
				rules), nil
		},
	})
	c.register(&VNFType{
		Name:        "nat",
		Description: "Symmetric NAPT rewriting outbound flows to a public address.",
		Ports:       []string{"in", "out", "rin", "rout"},
		Monitors:    []string{"nat.translations", "nat.dropped"},
		DefaultCPU:  300_000, DefaultMem: 96,
		Params: map[string]string{"PUBLIC": "192.0.2.1"},
		render: func(p map[string]string) (string, error) {
			return fmt.Sprintf(`
				nat :: NAT(PUBLIC %s);
				FromDevice(in) -> [0]nat;
				nat[0] -> Queue(1000) -> ToDevice(out);
				FromDevice(rin) -> [1]nat;
				nat[1] -> Queue(1000) -> ToDevice(rout);
			`, p["PUBLIC"]), nil
		},
	})
	c.register(&VNFType{
		Name:        "dpi",
		Description: "Counts (optionally drops) packets carrying a payload signature.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"dpi.matches", "dpi.total", "tx.count"},
		DefaultCPU:  400_000, DefaultMem: 128,
		Params: map[string]string{"SIGNATURE": "attack", "DROP": "false"},
		render: func(p map[string]string) (string, error) {
			return fmt.Sprintf(
				`FromDevice(in) -> dpi :: DPI(SIGNATURE "%s", DROP %s) -> Queue(1000) -> tx :: Counter -> ToDevice(out);`,
				p["SIGNATURE"], p["DROP"]), nil
		},
	})
	c.register(&VNFType{
		Name:        "loadbalancer",
		Description: "Sticky least-loaded L3 load balancer for a VIP.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"lb.flows", "tx.count"},
		DefaultCPU:  300_000, DefaultMem: 96,
		Params: map[string]string{"VIP": "10.0.0.100", "BACKENDS": "10.0.1.1,10.0.1.2"},
		render: func(p map[string]string) (string, error) {
			backends := strings.ReplaceAll(p["BACKENDS"], ",", ", ")
			return fmt.Sprintf(
				"FromDevice(in) -> lb :: LoadBalancer(VIP %s, %s) -> Queue(1000) -> tx :: Counter -> ToDevice(out);",
				p["VIP"], backends), nil
		},
	})
	c.register(&VNFType{
		Name:        "ratelimiter",
		Description: "Token-bucket policer built from Queue + RatedUnqueue.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"rx.count", "tx.count", "shaper.count"},
		DefaultCPU:  100_000, DefaultMem: 32,
		Params: map[string]string{"RATE": "1000", "QUEUE": "100"},
		render: func(p map[string]string) (string, error) {
			return fmt.Sprintf(
				"FromDevice(in) -> rx :: Counter -> Queue(%s) -> shaper :: RatedUnqueue(RATE %s) -> tx :: Counter -> ToDevice(out);",
				p["QUEUE"], p["RATE"]), nil
		},
	})
	c.register(&VNFType{
		Name:        "monitor",
		Description: "Transparent monitor exposing counters and rate handlers.",
		Ports:       []string{"in", "out"},
		Monitors:    []string{"cnt.count", "cnt.rate", "cnt.byte_count"},
		DefaultCPU:  100_000, DefaultMem: 32,
		Params: map[string]string{},
		render: func(p map[string]string) (string, error) {
			return "FromDevice(in) -> cnt :: Counter -> Queue(1000) -> ToDevice(out);", nil
		},
	})
	return c
}
