package yang

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The encoding/xml codec that ParseXML and Data.XML replaced, kept as the
// reference the parity tests and FuzzParseXML compare against.

// refXML renders the tree as indented XML.
func refXML(d *Data) string {
	var sb strings.Builder
	refWriteXML(d, &sb, 0)
	return sb.String()
}

func refWriteXML(d *Data, sb *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	sb.WriteString(pad)
	sb.WriteByte('<')
	sb.WriteString(d.Name)
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sb, " %s=%q", k, d.Attrs[k])
	}
	if len(d.Children) == 0 && d.Text == "" {
		sb.WriteString("/>\n")
		return
	}
	sb.WriteByte('>')
	if len(d.Children) == 0 {
		var esc strings.Builder
		xml.EscapeText(&esc, []byte(d.Text))
		sb.WriteString(esc.String())
		fmt.Fprintf(sb, "</%s>\n", d.Name)
		return
	}
	sb.WriteByte('\n')
	for _, c := range d.Children {
		refWriteXML(c, sb, depth+1)
	}
	sb.WriteString(pad)
	fmt.Fprintf(sb, "</%s>\n", d.Name)
}

// refParseXML parses one XML element (with children) into a Data tree.
// Namespace prefixes are stripped: YANG validation here is name-based.
func refParseXML(src string) (*Data, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("yang: no element in input")
		}
		if err != nil {
			return nil, fmt.Errorf("yang: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			return refParseElement(dec, se)
		}
	}
}

func refParseElement(dec *xml.Decoder, se xml.StartElement) (*Data, error) {
	d := NewData(se.Name.Local)
	for _, a := range se.Attr {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		d.SetAttr(a.Name.Local, a.Value)
	}
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("yang: unterminated element %q: %w", d.Name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := refParseElement(dec, t)
			if err != nil {
				return nil, err
			}
			d.Children = append(d.Children, child)
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			if len(d.Children) == 0 {
				d.Text = strings.TrimSpace(text.String())
			}
			return d, nil
		}
	}
}
