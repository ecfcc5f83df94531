package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"escape/internal/substrate"
)

// Params are one experiment's parameters as text, keyed by name — what
// `escape-bench -p key=value` sets. Lists are comma-separated.
type Params map[string]string

// Registered is one entry of the experiment registry and the one place
// that knows an experiment's parameters: Params holds every key with its
// full-run default, Quick the CI-sized overrides (what escape-bench
// -quick and the determinism suite run), and Run parses its keys and
// runs the experiment. Adding an experiment here enrolls it in both.
type Registered struct {
	ID     string
	Params Params
	Quick  Params
	Run    func(Params) (*Table, error)
}

// With resolves the parameters of one run: the full defaults, then Quick
// when quick is set, then overrides. An override naming a key the
// experiment does not have is an error; Run checks the values.
func (r Registered) With(quick bool, overrides Params) (Params, error) {
	p := Params{}
	for k, v := range r.Params {
		p[k] = v
	}
	if quick {
		for k, v := range r.Quick {
			p[k] = v
		}
	}
	for k, v := range overrides {
		if _, ok := r.Params[k]; !ok {
			keys := make([]string, 0, len(r.Params))
			for k := range r.Params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("%s has no parameter %q (its parameters: %q)", r.ID, k, keys)
		}
		p[k] = v
	}
	return p, nil
}

// parser reads typed values out of Params, keeping the first error.
type parser struct {
	p   Params
	err error
}

// ints reads a comma-separated list of positive integers.
func (ps *parser) ints(key string) []int {
	var out []int
	for _, f := range strings.Split(ps.p[key], ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			ps.fail(key, "positive integers, comma-separated")
			return nil
		}
		out = append(out, n)
	}
	return out
}

// int reads one positive integer.
func (ps *parser) int(key string) int {
	v := ps.ints(key)
	if len(v) != 1 {
		ps.fail(key, "one positive integer")
		return 0
	}
	return v[0]
}

func (ps *parser) fail(key, want string) {
	if ps.err == nil {
		ps.err = fmt.Errorf("parameter %s=%q: want %s", key, ps.p[key], want)
	}
}

// Registry lists every experiment (E1–E5, E7, E8, E11, E13, E14).
func Registry() []Registered {
	return []Registered{
		{ID: "e1", Run: func(Params) (*Table, error) { return e1Architecture() }},
		{ID: "e2", Run: func(Params) (*Table, error) { return E2Demo() }},
		{
			ID:     "e3",
			Params: Params{"sizes": "10,50,100,200,400"},
			Quick:  Params{"sizes": "3,6"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				sizes := ps.ints("sizes")
				if ps.err != nil {
					return nil, ps.err
				}
				return e3Scale(sizes)
			},
		},
		{
			ID:     "e4",
			Params: Params{"switches": "16", "chain": "3", "requests": "40"},
			Quick:  Params{"switches": "8", "chain": "2", "requests": "10"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				switches, chain, requests := ps.int("switches"), ps.int("chain"), ps.int("requests")
				if ps.err != nil {
					return nil, ps.err
				}
				return e4Mapping(switches, chain, requests)
			},
		},
		{
			ID:     "e5",
			Params: Params{"lengths": "1,2,4,8"},
			Quick:  Params{"lengths": "1,2"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				lengths := ps.ints("lengths")
				if ps.err != nil {
					return nil, ps.err
				}
				return e5Steering(lengths)
			},
		},
		{
			ID:     "e7",
			Params: Params{"vnfs": "1,8,32,64"},
			Quick:  Params{"vnfs": "1,4"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				vnfs := ps.ints("vnfs")
				if ps.err != nil {
					return nil, ps.err
				}
				return e7NETCONF(vnfs)
			},
		},
		{
			ID:     "e8",
			Params: Params{"lengths": "1,2,4,8"},
			Quick:  Params{"lengths": "1,2"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				lengths := ps.ints("lengths")
				if ps.err != nil {
					return nil, ps.err
				}
				return e8ServiceCreation(lengths)
			},
		},
		{
			ID:     "e11",
			Params: Params{"kills": "1,2", "chain": "3", "conc": "4"},
			Quick:  Params{"kills": "1", "chain": "2", "conc": "2"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				kills, chain, conc := ps.ints("kills"), ps.int("chain"), ps.int("conc")
				if ps.err != nil {
					return nil, ps.err
				}
				return e11SelfHealing(kills, chain, conc)
			},
		},
		{
			ID:     "e13",
			Params: Params{"tenants": "4", "intents": "6", "chain": "2"},
			Quick:  Params{"tenants": "2", "intents": "3"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				tenants, intents, chain := ps.int("tenants"), ps.int("intents"), ps.int("chain")
				if ps.err != nil {
					return nil, ps.err
				}
				return e13ControlPlane(tenants, intents, chain)
			},
		},
		{
			ID: "e14",
			Params: Params{
				"regions": "8", "sw": "64", "saps": "4", "ees": "3",
				"services": "400", "lifetime_h": "4", "linkbw": "1000000",
				"faults": "4", "procs": "diurnal,flash,pareto",
			},
			Quick: Params{"regions": "2", "sw": "32", "services": "60", "faults": "2"},
			Run: func(p Params) (*Table, error) {
				ps := &parser{p: p}
				cfg := e14Config{
					Regions: ps.int("regions"), SwitchesPerRegion: ps.int("sw"),
					SAPsPerRegion: ps.int("saps"), EEsPerRegion: ps.int("ees"),
					Services:     ps.int("services"),
					MeanLifetime: time.Duration(ps.int("lifetime_h")) * time.Hour,
					LinkBW:       float64(ps.int("linkbw")),
					Faults:       ps.int("faults"),
				}
				for _, f := range strings.Split(p["procs"], ",") {
					proc := substrate.ArrivalProcess(strings.TrimSpace(f))
					switch proc {
					case substrate.Diurnal, substrate.FlashCrowd, substrate.HeavyTailed:
						cfg.Processes = append(cfg.Processes, proc)
					default:
						ps.fail("procs", "diurnal, flash or pareto, comma-separated")
					}
				}
				if ps.err != nil {
					return nil, ps.err
				}
				return e14ScaleSim(cfg)
			},
		},
	}
}
