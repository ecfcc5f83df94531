package yang

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"unicode/utf8"
)

// This file is the codec between Data trees and the XML that NETCONF
// carries: a single-pass scanner and an append-style renderer, with no
// encoding/xml on the management plane's path. The tests keep an
// encoding/xml-based codec as the reference (reference_test.go): the
// scanner makes its accept/reject decision on any input and builds the
// same tree (FuzzParseXML holds it to that), and the renderer writes the
// same bytes, except attribute values, which the reference Go-quotes.

// XML renders the tree as indented XML: two spaces per level, one
// element per line, attributes in key order. Text and attribute values
// are escaped as encoding/xml's EscapeText escapes text, so ParseXML
// reads every attribute value, and every text without surrounding
// space, back unchanged.
func (d *Data) XML() string {
	var b strings.Builder
	b.Grow(512)
	d.writeXML(&b, 0)
	return b.String()
}

func (d *Data) writeXML(b *strings.Builder, depth int) {
	writePad(b, depth)
	b.WriteByte('<')
	b.WriteString(d.Name)
	d.writeAttrs(b)
	switch {
	case len(d.Children) == 0 && d.Text == "":
		b.WriteString("/>\n")
		return
	case len(d.Children) == 0:
		b.WriteByte('>')
		writeEscaped(b, d.Text)
	default:
		b.WriteString(">\n")
		for _, c := range d.Children {
			c.writeXML(b, depth+1)
		}
		writePad(b, depth)
	}
	b.WriteString("</")
	b.WriteString(d.Name)
	b.WriteString(">\n")
}

const padding = "                                "

func writePad(b *strings.Builder, depth int) {
	for n := 2 * depth; n > 0; n -= len(padding) {
		b.WriteString(padding[:min(n, len(padding))])
	}
}

// writeAttrs writes the attributes in key order. An element carries one
// or two (an rpc's xmlns and message-id), which need no sort.
func (d *Data) writeAttrs(b *strings.Builder) {
	if len(d.Attrs) > 2 {
		for _, k := range slices.Sorted(maps.Keys(d.Attrs)) {
			writeAttr(b, k, d.Attrs[k])
		}
		return
	}
	var kv [2][2]string
	n := 0
	for k, v := range d.Attrs {
		kv[n] = [2]string{k, v}
		n++
	}
	if n == 2 && kv[1][0] < kv[0][0] {
		kv[0], kv[1] = kv[1], kv[0]
	}
	for _, a := range kv[:n] {
		writeAttr(b, a[0], a[1])
	}
}

func writeAttr(b *strings.Builder, key, val string) {
	b.WriteByte(' ')
	b.WriteString(key)
	b.WriteString(`="`)
	writeEscaped(b, val)
	b.WriteByte('"')
}

// writeEscaped writes s escaped as encoding/xml's EscapeText escapes it:
// the five markup characters and tab, newline and carriage return as
// references, and every byte or rune XML cannot carry as U+FFFD. A run
// of plain bytes is written as one piece.
func writeEscaped(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && width == 1 || !isXMLChar(r) {
				esc = "\uFFFD"
			} else {
				i += width
				continue
			}
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		i += width
		last = i
	}
	b.WriteString(s[last:])
}

// isXMLChar reports whether XML 1.0 can carry r (its Char production).
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ParseXML parses the first XML element of src, with its children, into
// a Data tree and ignores whatever follows it. Namespace prefixes are
// stripped from names, and xmlns declarations dropped from attributes:
// YANG validation here is name-based. An element's text is its
// character data and CDATA, trimmed of surrounding space, and is kept
// only when it has no child elements.
//
// It reads the XML that NETCONF carries in one pass: before the root,
// an XML declaration, processing instructions, comments, DOCTYPE and
// other directives, all skipped; prefixed names; attributes in either
// quote; self-closing tags; the five predefined entities, numeric
// character references and CDATA; comments and processing
// instructions inside elements; and \r\n or \r read as \n. It accepts
// and refuses what encoding/xml's strict decoder accepts and refuses,
// down to name characters and unmatched end tags. Strings in the tree
// share src's memory where no entity or line end was rewritten.
func ParseXML(src string) (*Data, error) {
	p := parser{src: src}
	p.attrs, p.kids = p.attrBuf[:0], p.kidBuf[:0]
	for p.pos < len(src) {
		if src[p.pos] != '<' {
			if _, err := p.charData(); err != nil {
				return nil, err
			}
			continue
		}
		p.pos++
		if p.pos == len(src) {
			return nil, p.eof()
		}
		switch src[p.pos] {
		case '/':
			return nil, p.errorf("end tag before any element")
		case '?', '!':
			if _, _, err := p.markup(); err != nil {
				return nil, err
			}
		default:
			return p.element()
		}
	}
	return nil, fmt.Errorf("yang: no element in input")
}

// parser is ParseXML's state: the input, the read offset, scratch the
// elements being read share, and the slabs the tree is cut from.
type parser struct {
	src string
	pos int

	ns    []nsDecl // xmlns:prefix declarations in scope, innermost last
	attrs []attr   // the attributes of the start tag being read
	kids  []*Data  // the children of the open elements, outermost first

	nodes []Data
	links []*Data

	attrBuf [4]attr
	kidBuf  [16]*Data
}

// nsDecl is one xmlns:prefix declaration. Only whether it binds the
// prefix to "xmlns" matters: encoding/xml then reads the prefix's
// attributes as namespace declarations, which the tree drops.
type nsDecl struct {
	prefix string
	xmlns  bool
}

type attr struct{ prefix, local, value string }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("yang: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error { return p.errorf("unexpected EOF") }

// node allocates an element from the node slab, whose first chunk is
// sized from the number of tags in the input.
func (p *parser) node(name string) *Data {
	if len(p.nodes) == cap(p.nodes) {
		n := 16
		if p.nodes == nil {
			n = min(strings.Count(p.src[p.pos:], "<")/2+1, 256)
		}
		p.nodes = make([]Data, 0, n)
	}
	p.nodes = append(p.nodes, Data{Name: name})
	return &p.nodes[len(p.nodes)-1]
}

// children copies the last n entries of kids into a Children slice cut
// from the link slab. Its capacity is its length, so an append to it
// reallocates rather than overwrite a neighbour.
func (p *parser) children(n int) []*Data {
	if cap(p.links)-len(p.links) < n {
		p.links = make([]*Data, 0, max(n, 32))
	}
	at := len(p.links)
	p.links = p.links[:at+n]
	out := p.links[at : at+n : at+n]
	copy(out, p.kids[len(p.kids)-n:])
	p.kids = p.kids[:len(p.kids)-n]
	return out
}

// element reads an element whose name starts at p.pos, just past its
// '<', through its end tag.
func (p *parser) element() (*Data, error) {
	raw, ok := p.name()
	if !ok {
		return nil, p.errorf("expected element name after <")
	}
	_, local, ok := splitName(raw)
	if !ok {
		return nil, p.errorf("invalid element name %q", raw)
	}
	d := p.node(local)
	scope := len(p.ns)
	empty, err := p.startTagRest()
	if err != nil {
		return nil, err
	}
	for _, a := range p.attrs {
		if a.prefix == "xmlns" || a.local == "xmlns" || p.declaresNS(a.prefix) {
			continue
		}
		if d.Attrs == nil {
			d.Attrs = make(map[string]string, len(p.attrs))
		}
		d.Attrs[a.local] = a.value
	}
	p.attrs = p.attrs[:0]
	if empty {
		p.ns = p.ns[:scope]
		return d, nil
	}

	kids := len(p.kids)
	var text textAcc
	for {
		if p.pos == len(p.src) {
			return nil, p.errorf("unterminated element <%s>", raw)
		}
		if p.src[p.pos] != '<' {
			t, err := p.charData()
			if err != nil {
				return nil, err
			}
			if len(p.kids) == kids {
				text.add(t)
			}
			continue
		}
		p.pos++
		if p.pos == len(p.src) {
			return nil, p.eof()
		}
		switch p.src[p.pos] {
		case '/':
			p.pos++
			if end, _ := p.name(); end != raw {
				return nil, p.errorf("element <%s> closed by </%s>", raw, end)
			}
			p.space()
			if p.pos == len(p.src) || p.src[p.pos] != '>' {
				return nil, p.errorf("invalid characters in </%s>", raw)
			}
			p.pos++
			p.ns = p.ns[:scope]
			if n := len(p.kids) - kids; n > 0 {
				d.Children = p.children(n)
			} else {
				d.Text = strings.TrimSpace(text.String())
			}
			return d, nil
		case '?', '!':
			t, isText, err := p.markup()
			if err != nil {
				return nil, err
			}
			if isText && len(p.kids) == kids {
				text.add(t)
			}
		default:
			child, err := p.element()
			if err != nil {
				return nil, err
			}
			p.kids = append(p.kids, child)
		}
	}
}

// startTagRest reads a start tag's attributes into p.attrs, and its
// xmlns:prefix declarations into p.ns, through its '>' or "/>".
func (p *parser) startTagRest() (empty bool, err error) {
	for {
		p.space()
		if p.pos == len(p.src) {
			return false, p.eof()
		}
		switch p.src[p.pos] {
		case '>':
			p.pos++
			return false, nil
		case '/':
			p.pos++
			if p.pos == len(p.src) || p.src[p.pos] != '>' {
				return false, p.errorf("expected /> in element")
			}
			p.pos++
			return true, nil
		}
		raw, ok := p.name()
		if !ok {
			return false, p.errorf("expected attribute name in element")
		}
		prefix, local, ok := splitName(raw)
		if !ok {
			return false, p.errorf("invalid attribute name %q", raw)
		}
		p.space()
		if p.pos == len(p.src) || p.src[p.pos] != '=' {
			return false, p.errorf("attribute %s without =", raw)
		}
		p.pos++
		p.space()
		if p.pos == len(p.src) {
			return false, p.eof()
		}
		q := p.src[p.pos]
		if q != '"' && q != '\'' {
			return false, p.errorf("unquoted or missing value of attribute %s", raw)
		}
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], q)
		if end < 0 {
			return false, p.eof()
		}
		rawVal := p.src[p.pos : p.pos+end]
		if strings.IndexByte(rawVal, '<') >= 0 {
			return false, p.errorf("unescaped < in the value of attribute %s", raw)
		}
		val, err := p.decode(rawVal, true)
		if err != nil {
			return false, err
		}
		p.pos += end + 1
		if prefix == "xmlns" {
			p.ns = append(p.ns, nsDecl{local, val == "xmlns"})
		}
		p.attrs = append(p.attrs, attr{prefix, local, val})
	}
}

// declaresNS reports whether an attribute with this prefix is, to
// encoding/xml, a namespace declaration: its prefix is bound to
// "xmlns". The xml prefix is bound for good and never reads that way.
func (p *parser) declaresNS(prefix string) bool {
	if prefix == "" || prefix == "xml" {
		return false
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].xmlns
		}
	}
	return false
}

// markup reads the markup at p.pos, just past a '<', that opens with
// '?' or '!': a processing instruction, a comment, a directive such as
// DOCTYPE, or a CDATA section, whose text it returns.
func (p *parser) markup() (text string, isText bool, err error) {
	if p.src[p.pos] == '?' {
		return "", false, p.procInst()
	}
	p.pos++ // '!'
	rest := p.src[p.pos:]
	switch {
	case rest == "":
		return "", false, p.eof()
	case rest[0] == '-':
		if len(rest) < 2 || rest[1] != '-' {
			return "", false, p.errorf("invalid sequence <!- not part of <!--")
		}
		p.pos += 2
		end := strings.Index(p.src[p.pos:], "--")
		if end < 0 || p.pos+end+2 == len(p.src) {
			return "", false, p.eof()
		}
		if p.src[p.pos+end+2] != '>' {
			return "", false, p.errorf(`"--" in a comment`)
		}
		p.pos += end + 3
		return "", false, nil
	case rest[0] == '[':
		if !strings.HasPrefix(rest[1:], "CDATA[") {
			return "", false, p.errorf("invalid <![ sequence")
		}
		p.pos += len("[CDATA[")
		end := strings.Index(p.src[p.pos:], "]]>")
		if end < 0 {
			return "", false, p.errorf("unterminated CDATA section")
		}
		text, err := p.decode(p.src[p.pos:p.pos+end], false)
		p.pos += end + 3
		return text, true, err
	}
	return "", false, p.directive()
}

// procInst skips a processing instruction; p.pos is at its '?'. The
// XML declaration is checked as encoding/xml checks it: version 1.0 and
// encoding UTF-8, when given.
func (p *parser) procInst() error {
	p.pos++
	target, ok := p.name()
	if !ok {
		return p.errorf("expected target name after <?")
	}
	p.space()
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return p.eof()
	}
	content := p.src[p.pos : p.pos+end]
	p.pos += end + 2
	if target == "xml" {
		if v := procInstParam("version", content); v != "" && v != "1.0" {
			return p.errorf("unsupported XML version %q", v)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.errorf("unsupported encoding %q", enc)
		}
	}
	return nil
}

// procInstParam returns the quoted value of param in a processing
// instruction's content, or "": encoding/xml's lenient reading, which
// takes the first "param=" followed by a quote.
func procInstParam(param, s string) string {
	param += "="
	var sep byte
	i := 0
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || k+len(param) >= len(sub) {
			return ""
		}
		i += k + len(param) + 1
		if c := sub[k+len(param)]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// directive skips a directive such as <!DOCTYPE …>; p.pos is at its
// first byte after "<!", which is taken as it is. It ends at the first
// '>' outside quotes that closes as many '<' as were opened in it, and
// comments inside it are skipped whole.
func (p *parser) directive() error {
	s := p.src
	i := p.pos + 1
	var quote byte
	depth := 0
	for {
		if i == len(s) {
			return p.eof()
		}
		b := s[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for k := range 3 {
				if i == len(s) {
					return p.eof()
				}
				b = s[i]
				i++
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			end := strings.Index(s[i:], "-->")
			if end < 0 {
				return p.eof()
			}
			i += end + 3
		}
	}
	p.pos = i
	return nil
}

// charData reads character data up to the next '<' or the end of src.
func (p *parser) charData() (string, error) {
	start := p.pos
	end := strings.IndexByte(p.src[start:], '<')
	if end < 0 {
		end = len(p.src) - start
	}
	raw := p.src[start : start+end]
	if strings.Contains(raw, "]]>") {
		return "", p.errorf("unescaped ]]> not in a CDATA section")
	}
	p.pos += end
	return p.decode(raw, true)
}

// decode returns the text raw stands for: references replaced (when
// refs is set; CDATA has none) and \r\n and \r read as \n. It refuses
// invalid UTF-8, a character XML cannot carry, and any '&' that does
// not start a predefined entity or a character reference. Text with
// nothing to replace is returned as it is, sharing src's memory.
func (p *parser) decode(raw string, refs bool) (string, error) {
	var out []byte // nil until something is replaced
	last := 0
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '&' && refs:
			r, n := charRef(raw[i:])
			if n == 0 {
				return "", p.errorf("invalid character entity in %q", raw)
			}
			if !isXMLChar(r) {
				return "", p.errorf("illegal character code %U", r)
			}
			out = utf8.AppendRune(append(out, raw[last:i]...), r)
			i += n
			last = i
		case c == '\r':
			out = append(append(out, raw[last:i]...), '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
			last = i
		case c >= 0x20 && c < utf8.RuneSelf || c == '\n' || c == '\t':
			i++
		case c < 0x20:
			return "", p.errorf("illegal character code %U", rune(c))
		default:
			r, w := utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && w == 1 {
				return "", p.errorf("invalid UTF-8")
			}
			if !isXMLChar(r) {
				return "", p.errorf("illegal character code %U", r)
			}
			i += w
		}
	}
	if out == nil {
		return raw, nil
	}
	return string(append(out, raw[last:]...)), nil
}

// charRef decodes the reference that s starts with ("&lt;", "&#60;",
// "&#x3C;") into its rune and its length, or returns length 0 when s
// does not start with a predefined entity or a character reference to
// a code point. A reference to a surrogate stands for U+FFFD, as a
// Go conversion of it does.
func charRef(s string) (rune, int) {
	i := 1
	if i < len(s) && s[i] == '#' {
		i++
		base := rune(10)
		if i < len(s) && s[i] == 'x' {
			base = 16
			i++
		}
		start := i
		var v rune
		for ; i < len(s); i++ {
			d := digit(s[i], base)
			if d < 0 {
				break
			}
			if v <= utf8.MaxRune {
				v = v*base + d
			}
		}
		if i == start || i == len(s) || s[i] != ';' || v > utf8.MaxRune {
			return 0, 0
		}
		if v >= 0xD800 && v <= 0xDFFF {
			v = utf8.RuneError
		}
		return v, i + 1
	}
	for i < len(s) && (isNameByte(s[i]) || s[i] >= utf8.RuneSelf) {
		i++
	}
	if i == len(s) || s[i] != ';' {
		return 0, 0
	}
	var r rune
	switch s[1:i] {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0
	}
	return r, i + 1
}

func digit(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// textAcc joins an element's text pieces. The first piece is kept as it
// is: a leaf's text is one piece, so it is not copied.
type textAcc struct {
	first string
	more  []byte
	n     int
}

func (t *textAcc) add(s string) {
	switch t.n++; t.n {
	case 1:
		t.first = s
	case 2:
		t.more = append(append([]byte(nil), t.first...), s...)
	default:
		t.more = append(t.more, s...)
	}
}

func (t *textAcc) String() string {
	if t.n > 1 {
		return string(t.more)
	}
	return t.first
}

func (p *parser) space() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// name reads a name at p.pos: the bytes encoding/xml reads as one, which
// are the ASCII name bytes and every byte of a multi-byte rune. It
// reports false for an empty or invalid name (see isName).
func (p *parser) name() (string, bool) {
	start := p.pos
	ascii := true
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= utf8.RuneSelf {
			ascii = false
		} else if !isNameByte(c) {
			break
		}
		p.pos++
	}
	s := p.src[start:p.pos]
	if ascii {
		return s, s != "" && isNameStartByte(s[0])
	}
	return s, isName(s)
}

// splitName splits a name into prefix and local part as encoding/xml
// does: a name with one inner colon has a prefix, one with a leading or
// trailing colon or none is all local part, and one with two or more
// colons is refused.
func splitName(s string) (prefix, local string, ok bool) {
	i := strings.IndexByte(s, ':')
	switch {
	case i < 0:
		return "", s, true
	case strings.IndexByte(s[i+1:], ':') >= 0:
		return "", "", false
	case i == 0 || i == len(s)-1:
		return "", s, true
	}
	return s[:i], s[i+1:], true
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

func isNameStartByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// isName reports whether s is a name under XML 1.0's Name production as
// its 4th edition's Appendix B defines the letters, digits, combining
// characters and extenders, which encoding/xml checks.
func isName(s string) bool {
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && w == 1:
			return false
		case r < utf8.RuneSelf:
			if i == 0 && !isNameStartByte(byte(r)) || !isNameByte(byte(r)) {
				return false
			}
		case !inRanges(nameRest, r), i == 0 && !inRanges(nameStart, r):
			return false
		}
		i += w
	}
	return s != ""
}

// inRanges reports whether r falls in one of the inclusive ranges of
// table, a sorted list of lo, hi pairs.
func inRanges(table []uint16, r rune) bool {
	if r > 0xFFFF {
		return false
	}
	lo, hi := 0, len(table)/2
	for lo < hi {
		m := (lo + hi) / 2
		switch {
		case r < rune(table[2*m]):
			hi = m
		case r > rune(table[2*m+1]):
			lo = m + 1
		default:
			return true
		}
	}
	return false
}

// nameStart and nameRest are the non-ASCII runes a name may start with
// and continue with (the latter a superset), as lo, hi pairs: XML 1.0
// 4th edition's Letter, and Letter | Digit | CombiningChar | Extender.
// TestNameTables checks them against encoding/xml rune by rune.
var nameStart = []uint16{
	0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148, 0x014A, 0x017E,
	0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8, 0x02BB, 0x02C1,
	0x0386, 0x0386, 0x0388, 0x038A, 0x038C, 0x038C, 0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6,
	0x03DA, 0x03DA, 0x03DC, 0x03DC, 0x03DE, 0x03DE, 0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C,
	0x040E, 0x044F, 0x0451, 0x045C, 0x045E, 0x0481, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC,
	0x04D0, 0x04EB, 0x04EE, 0x04F5, 0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586,
	0x05D0, 0x05EA, 0x05F0, 0x05F2, 0x0621, 0x063A, 0x0641, 0x064A, 0x0671, 0x06B7, 0x06BA, 0x06BE,
	0x06C0, 0x06CE, 0x06D0, 0x06D3, 0x06D5, 0x06D5, 0x06E5, 0x06E6, 0x0905, 0x0939, 0x093D, 0x093D,
	0x0958, 0x0961, 0x0985, 0x098C, 0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2,
	0x09B6, 0x09B9, 0x09DC, 0x09DD, 0x09DF, 0x09E1, 0x09F0, 0x09F1, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10,
	0x0A13, 0x0A28, 0x0A2A, 0x0A30, 0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A59, 0x0A5C,
	0x0A5E, 0x0A5E, 0x0A72, 0x0A74, 0x0A85, 0x0A8B, 0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8,
	0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9, 0x0ABD, 0x0ABD, 0x0AE0, 0x0AE0, 0x0B05, 0x0B0C,
	0x0B0F, 0x0B10, 0x0B13, 0x0B28, 0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39, 0x0B3D, 0x0B3D,
	0x0B5C, 0x0B5D, 0x0B5F, 0x0B61, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9,
	0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C60, 0x0C61,
	0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CDE, 0x0CDE,
	0x0CE0, 0x0CE1, 0x0D05, 0x0D0C, 0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D60, 0x0D61,
	0x0E01, 0x0E2E, 0x0E30, 0x0E30, 0x0E32, 0x0E33, 0x0E40, 0x0E45, 0x0E81, 0x0E82, 0x0E84, 0x0E84,
	0x0E87, 0x0E88, 0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3,
	0x0EA5, 0x0EA5, 0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB0, 0x0EB2, 0x0EB3,
	0x0EBD, 0x0EBD, 0x0EC0, 0x0EC4, 0x0F40, 0x0F47, 0x0F49, 0x0F69, 0x10A0, 0x10C5, 0x10D0, 0x10F6,
	0x1100, 0x1100, 0x1102, 0x1103, 0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C, 0x110E, 0x1112,
	0x113C, 0x113C, 0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E, 0x1150, 0x1150,
	0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165, 0x1167, 0x1167,
	0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E, 0x11A8, 0x11A8,
	0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2, 0x11EB, 0x11EB,
	0x11F0, 0x11F0, 0x11F9, 0x11F9, 0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15, 0x1F18, 0x1F1D,
	0x1F20, 0x1F45, 0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B, 0x1F5D, 0x1F5D,
	0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4, 0x1FC6, 0x1FCC,
	0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC, 0x2126, 0x2126,
	0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182, 0x3007, 0x3007, 0x3021, 0x3029, 0x3041, 0x3094,
	0x30A1, 0x30FA, 0x3105, 0x312C, 0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}

var nameRest = []uint16{
	0x00B7, 0x00B7, 0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148,
	0x014A, 0x017E, 0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8,
	0x02BB, 0x02C1, 0x02D0, 0x02D1, 0x0300, 0x0345, 0x0360, 0x0361, 0x0386, 0x038A, 0x038C, 0x038C,
	0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6, 0x03DA, 0x03DA, 0x03DC, 0x03DC, 0x03DE, 0x03DE,
	0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C, 0x040E, 0x044F, 0x0451, 0x045C, 0x045E, 0x0481,
	0x0483, 0x0486, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC, 0x04D0, 0x04EB, 0x04EE, 0x04F5,
	0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586, 0x0591, 0x05A1, 0x05A3, 0x05B9,
	0x05BB, 0x05BD, 0x05BF, 0x05BF, 0x05C1, 0x05C2, 0x05C4, 0x05C4, 0x05D0, 0x05EA, 0x05F0, 0x05F2,
	0x0621, 0x063A, 0x0640, 0x0652, 0x0660, 0x0669, 0x0670, 0x06B7, 0x06BA, 0x06BE, 0x06C0, 0x06CE,
	0x06D0, 0x06D3, 0x06D5, 0x06E8, 0x06EA, 0x06ED, 0x06F0, 0x06F9, 0x0901, 0x0903, 0x0905, 0x0939,
	0x093C, 0x094D, 0x0951, 0x0954, 0x0958, 0x0963, 0x0966, 0x096F, 0x0981, 0x0983, 0x0985, 0x098C,
	0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2, 0x09B6, 0x09B9, 0x09BC, 0x09BC,
	0x09BE, 0x09C4, 0x09C7, 0x09C8, 0x09CB, 0x09CD, 0x09D7, 0x09D7, 0x09DC, 0x09DD, 0x09DF, 0x09E3,
	0x09E6, 0x09F1, 0x0A02, 0x0A02, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10, 0x0A13, 0x0A28, 0x0A2A, 0x0A30,
	0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A3C, 0x0A3C, 0x0A3E, 0x0A42, 0x0A47, 0x0A48,
	0x0A4B, 0x0A4D, 0x0A59, 0x0A5C, 0x0A5E, 0x0A5E, 0x0A66, 0x0A74, 0x0A81, 0x0A83, 0x0A85, 0x0A8B,
	0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8, 0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9,
	0x0ABC, 0x0AC5, 0x0AC7, 0x0AC9, 0x0ACB, 0x0ACD, 0x0AE0, 0x0AE0, 0x0AE6, 0x0AEF, 0x0B01, 0x0B03,
	0x0B05, 0x0B0C, 0x0B0F, 0x0B10, 0x0B13, 0x0B28, 0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39,
	0x0B3C, 0x0B43, 0x0B47, 0x0B48, 0x0B4B, 0x0B4D, 0x0B56, 0x0B57, 0x0B5C, 0x0B5D, 0x0B5F, 0x0B61,
	0x0B66, 0x0B6F, 0x0B82, 0x0B83, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9,
	0x0BBE, 0x0BC2, 0x0BC6, 0x0BC8, 0x0BCA, 0x0BCD, 0x0BD7, 0x0BD7, 0x0BE7, 0x0BEF, 0x0C01, 0x0C03,
	0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C3E, 0x0C44,
	0x0C46, 0x0C48, 0x0C4A, 0x0C4D, 0x0C55, 0x0C56, 0x0C60, 0x0C61, 0x0C66, 0x0C6F, 0x0C82, 0x0C83,
	0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CBE, 0x0CC4,
	0x0CC6, 0x0CC8, 0x0CCA, 0x0CCD, 0x0CD5, 0x0CD6, 0x0CDE, 0x0CDE, 0x0CE0, 0x0CE1, 0x0CE6, 0x0CEF,
	0x0D02, 0x0D03, 0x0D05, 0x0D0C, 0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D3E, 0x0D43,
	0x0D46, 0x0D48, 0x0D4A, 0x0D4D, 0x0D57, 0x0D57, 0x0D60, 0x0D61, 0x0D66, 0x0D6F, 0x0E01, 0x0E2E,
	0x0E30, 0x0E3A, 0x0E40, 0x0E4E, 0x0E50, 0x0E59, 0x0E81, 0x0E82, 0x0E84, 0x0E84, 0x0E87, 0x0E88,
	0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3, 0x0EA5, 0x0EA5,
	0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB9, 0x0EBB, 0x0EBD, 0x0EC0, 0x0EC4,
	0x0EC6, 0x0EC6, 0x0EC8, 0x0ECD, 0x0ED0, 0x0ED9, 0x0F18, 0x0F19, 0x0F20, 0x0F29, 0x0F35, 0x0F35,
	0x0F37, 0x0F37, 0x0F39, 0x0F39, 0x0F3E, 0x0F47, 0x0F49, 0x0F69, 0x0F71, 0x0F84, 0x0F86, 0x0F8B,
	0x0F90, 0x0F95, 0x0F97, 0x0F97, 0x0F99, 0x0FAD, 0x0FB1, 0x0FB7, 0x0FB9, 0x0FB9, 0x10A0, 0x10C5,
	0x10D0, 0x10F6, 0x1100, 0x1100, 0x1102, 0x1103, 0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C,
	0x110E, 0x1112, 0x113C, 0x113C, 0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E,
	0x1150, 0x1150, 0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165,
	0x1167, 0x1167, 0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E,
	0x11A8, 0x11A8, 0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2,
	0x11EB, 0x11EB, 0x11F0, 0x11F0, 0x11F9, 0x11F9, 0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15,
	0x1F18, 0x1F1D, 0x1F20, 0x1F45, 0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B,
	0x1F5D, 0x1F5D, 0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4,
	0x1FC6, 0x1FCC, 0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC,
	0x20D0, 0x20DC, 0x20E1, 0x20E1, 0x2126, 0x2126, 0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182,
	0x3005, 0x3005, 0x3007, 0x3007, 0x3021, 0x302F, 0x3031, 0x3035, 0x3041, 0x3094, 0x3099, 0x309A,
	0x309D, 0x309E, 0x30A1, 0x30FA, 0x30FC, 0x30FE, 0x3105, 0x312C, 0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}
