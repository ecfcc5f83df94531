// Package viz renders service graphs and mappings as Graphviz DOT: the
// textual stand-in for ESCAPE's MiniEdit-based GUI. cmd/miniedit renders
// a service graph and `escape map` a mapping, so both are visualizable
// with standard tools.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"escape/internal/core"
	"escape/internal/sg"
)

// ServiceGraphDOT renders a service graph.
func ServiceGraphDOT(g *sg.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", g.Name)
	for _, s := range g.SAPs {
		fmt.Fprintf(&sb, "  %q [shape=circle, color=orange];\n", s.ID)
	}
	for _, nf := range g.NFs {
		fmt.Fprintf(&sb, "  %q [shape=box, label=\"%s\\n(%s)\"];\n", nf.ID, nf.ID, nf.Type)
	}
	for _, l := range g.Links {
		label := l.ID
		if l.Bandwidth > 0 {
			label += fmt.Sprintf("\\n%gMbps", l.Bandwidth/1e6)
		}
		if l.MaxDelay > 0 {
			label += fmt.Sprintf("\\n≤%s", l.MaxDelay)
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", l.Src.Node, l.Dst.Node, label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// MappingDOT renders a mapping: NFs clustered inside their EEs, routes as
// edge labels.
func MappingDOT(m *core.Mapping) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  compound=true;\n", m.Graph.Name+"-mapping")
	// Group NFs by EE.
	byEE := map[string][]string{}
	for nf, ee := range m.Placements {
		byEE[ee] = append(byEE[ee], nf)
	}
	ees := make([]string, 0, len(byEE))
	for ee := range byEE {
		ees = append(ees, ee)
	}
	sort.Strings(ees)
	for i, ee := range ees {
		nfs := byEE[ee]
		sort.Strings(nfs)
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=%q;\n    color=darkgreen;\n", i, ee)
		for _, nf := range nfs {
			fmt.Fprintf(&sb, "    %q [shape=box];\n", nf)
		}
		sb.WriteString("  }\n")
	}
	for _, s := range m.Graph.SAPs {
		fmt.Fprintf(&sb, "  %q [shape=circle, color=orange];\n", s.ID)
	}
	linkIDs := make([]string, 0, len(m.Routes))
	for id := range m.Routes {
		linkIDs = append(linkIDs, id)
	}
	sort.Strings(linkIDs)
	for _, id := range linkIDs {
		l := m.Graph.Link(id)
		if l == nil {
			continue
		}
		route := m.Routes[id]
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%s\\nvia %s\"];\n",
			l.Src.Node, l.Dst.Node, id, strings.Join(route, "→"))
	}
	sb.WriteString("}\n")
	return sb.String()
}
