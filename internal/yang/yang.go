// Package yang implements the subset of YANG (RFC 6020) data modeling
// that ESCAPE's NETCONF agent uses: modules with containers, lists,
// leaves, leaf-lists and RPCs, typed leaves with validation, and YANG
// source rendering. The operation of the original ESCAPE agent is
// "described by the YANG data modeling language"; this package makes that
// description executable — the agent's RPCs are validated against the
// model before they reach instrumentation code.
package yang

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Kind discriminates schema node kinds.
type Kind int

// Schema node kinds.
const (
	KindContainer Kind = iota
	KindLeaf
	KindLeafList
	KindList
	kindRPC
)

// Type enumerates leaf types.
type Type int

// Leaf types.
const (
	TypeString Type = iota
	TypeInt32
	TypeUint32
	TypeDecimal64
	typeBoolean
	TypeEnum
)

func (t Type) String() string {
	switch t {
	case TypeInt32:
		return "int32"
	case TypeUint32:
		return "uint32"
	case TypeDecimal64:
		return "decimal64"
	case typeBoolean:
		return "boolean"
	case TypeEnum:
		return "enumeration"
	}
	return "string"
}

// Node is a schema node.
type Node struct {
	Name        string
	Kind        Kind
	Description string

	// Leaf/leaf-list fields.
	Type      Type
	Enums     []string // TypeEnum values
	Mandatory bool

	// List key leaf name.
	Key string

	// Container/list/RPC children. For RPCs, Input and Output hold the
	// parameter containers.
	Children []*Node
	Input    []*Node
	Output   []*Node
}

// Module is a YANG module.
type Module struct {
	Name      string
	Namespace string
	Prefix    string
	Body      []*Node
	RPCs      []*Node
}

// RPC returns the named rpc node, or nil.
func (m *Module) RPC(name string) *Node {
	for _, r := range m.RPCs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// checkLeafValue validates text against a leaf's type.
func checkLeafValue(n *Node, text string) error {
	switch n.Type {
	case TypeInt32:
		if _, err := strconv.ParseInt(text, 10, 32); err != nil {
			return fmt.Errorf("leaf %q: %q is not an int32", n.Name, text)
		}
	case TypeUint32:
		if _, err := strconv.ParseUint(text, 10, 32); err != nil {
			return fmt.Errorf("leaf %q: %q is not a uint32", n.Name, text)
		}
	case TypeDecimal64:
		if !decimal64.MatchString(text) {
			return fmt.Errorf("leaf %q: %q is not a decimal64", n.Name, text)
		}
	case typeBoolean:
		if text != "true" && text != "false" {
			return fmt.Errorf("leaf %q: %q is not a boolean", n.Name, text)
		}
	case TypeEnum:
		for _, e := range n.Enums {
			if e == text {
				return nil
			}
		}
		return fmt.Errorf("leaf %q: %q is not one of %v", n.Name, text, n.Enums)
	}
	return nil
}

// decimal64 is the lexical form of RFC 7950 §9.3.1: an optional sign,
// digits, then optionally "." and digits. No exponent, NaN or Inf.
var decimal64 = regexp.MustCompile(`^[+-]?[0-9]+(\.[0-9]+)?$`)

// validateChildren checks data elements against a schema child set:
// every element must be modeled, leaves must type-check, mandatory
// children must be present, list entries must carry their key.
func validateChildren(schema []*Node, elems []*Data, where string) error {
	byName := map[string]*Node{}
	for _, s := range schema {
		byName[s.Name] = s
	}
	seen := map[string]int{}
	for _, el := range elems {
		sn, ok := byName[el.Name]
		if !ok {
			return fmt.Errorf("yang: element %q not modeled under %q", el.Name, where)
		}
		seen[el.Name]++
		switch sn.Kind {
		case KindLeaf:
			if len(el.Children) > 0 {
				return fmt.Errorf("yang: leaf %q has child elements", el.Name)
			}
			if seen[el.Name] > 1 {
				return fmt.Errorf("yang: leaf %q appears %d times", el.Name, seen[el.Name])
			}
			if err := checkLeafValue(sn, el.Text); err != nil {
				return fmt.Errorf("yang: %v", err)
			}
		case KindLeafList:
			if err := checkLeafValue(sn, el.Text); err != nil {
				return fmt.Errorf("yang: %v", err)
			}
		case KindContainer:
			if err := validateChildren(sn.Children, el.Children, el.Name); err != nil {
				return err
			}
		case KindList:
			if sn.Key != "" && el.Child(sn.Key) == nil {
				return fmt.Errorf("yang: list entry %q missing key leaf %q", el.Name, sn.Key)
			}
			if err := validateChildren(sn.Children, el.Children, el.Name); err != nil {
				return err
			}
		case kindRPC:
			return fmt.Errorf("yang: rpc %q cannot appear in data", el.Name)
		}
	}
	for _, s := range schema {
		if s.Mandatory && seen[s.Name] == 0 {
			return fmt.Errorf("yang: mandatory node %q missing under %q", s.Name, where)
		}
	}
	return nil
}

// ValidateRPCInput checks an rpc invocation payload against the model.
func (m *Module) ValidateRPCInput(rpcName string, input *Data) error {
	rpc := m.RPC(rpcName)
	if rpc == nil {
		return fmt.Errorf("yang: module %q has no rpc %q", m.Name, rpcName)
	}
	return validateChildren(rpc.Input, input.Children, rpcName)
}

// YANG renders the module as YANG source text (what a get-schema request
// would return).
func (m *Module) YANG() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s {\n", m.Name)
	fmt.Fprintf(&sb, "  namespace %q;\n", m.Namespace)
	fmt.Fprintf(&sb, "  prefix %s;\n\n", m.Prefix)
	for _, n := range m.Body {
		renderNode(&sb, n, 1)
	}
	for _, r := range m.RPCs {
		renderRPC(&sb, r, 1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func renderNode(sb *strings.Builder, n *Node, depth int) {
	indent(sb, depth)
	switch n.Kind {
	case KindContainer:
		fmt.Fprintf(sb, "container %s {\n", n.Name)
		renderDesc(sb, n, depth+1)
		for _, c := range n.Children {
			renderNode(sb, c, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case KindList:
		fmt.Fprintf(sb, "list %s {\n", n.Name)
		if n.Key != "" {
			indent(sb, depth+1)
			fmt.Fprintf(sb, "key %q;\n", n.Key)
		}
		renderDesc(sb, n, depth+1)
		for _, c := range n.Children {
			renderNode(sb, c, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case KindLeaf, KindLeafList:
		kw := "leaf"
		if n.Kind == KindLeafList {
			kw = "leaf-list"
		}
		fmt.Fprintf(sb, "%s %s {\n", kw, n.Name)
		indent(sb, depth+1)
		if n.Type == TypeEnum {
			sb.WriteString("type enumeration {\n")
			for _, e := range n.Enums {
				indent(sb, depth+2)
				fmt.Fprintf(sb, "enum %s;\n", e)
			}
			indent(sb, depth+1)
			sb.WriteString("}\n")
		} else {
			fmt.Fprintf(sb, "type %s;\n", n.Type)
		}
		if n.Mandatory {
			indent(sb, depth+1)
			sb.WriteString("mandatory true;\n")
		}
		renderDesc(sb, n, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	}
}

func renderRPC(sb *strings.Builder, r *Node, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "rpc %s {\n", r.Name)
	renderDesc(sb, r, depth+1)
	if len(r.Input) > 0 {
		indent(sb, depth+1)
		sb.WriteString("input {\n")
		for _, c := range r.Input {
			renderNode(sb, c, depth+2)
		}
		indent(sb, depth+1)
		sb.WriteString("}\n")
	}
	if len(r.Output) > 0 {
		indent(sb, depth+1)
		sb.WriteString("output {\n")
		for _, c := range r.Output {
			renderNode(sb, c, depth+2)
		}
		indent(sb, depth+1)
		sb.WriteString("}\n")
	}
	indent(sb, depth)
	sb.WriteString("}\n")
}

func renderDesc(sb *strings.Builder, n *Node, depth int) {
	if n.Description == "" {
		return
	}
	indent(sb, depth)
	fmt.Fprintf(sb, "description %q;\n", n.Description)
}
