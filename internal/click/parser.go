package click

import (
	"fmt"
	"strings"
	"unicode"
)

// The parser handles the Click configuration language subset ESCAPE
// generates and its catalog uses:
//
//	// comments and /* comments */
//	nat :: NAT(PUBLIC 192.0.2.1);
//	q1, q2 :: Queue(200);                  // multi-declaration
//	FromDevice(in) -> Counter -> [0]nat;   // anonymous elements, input port
//	nat[1] -> q2;                          // output port specifier
//	q2 -> shaper :: RatedUnqueue(RATE 1000) -> ToDevice(out);
//
// Unsupported constructs (elementclass, require, #define) produce parse
// errors naming the construct, so misuse is diagnosed rather than silently
// mis-wired.

// ConfigDecl is a parsed element declaration.
type ConfigDecl struct {
	Name  string
	Class string
	Args  []string
}

// ConfigConn is a parsed connection between two element ports.
type ConfigConn struct {
	From     string
	FromPort int
	To       string
	ToPort   int
}

// Config is the parsed form of a configuration string.
type Config struct {
	Decls []ConfigDecl
	Conns []ConfigConn
}

// ParseError describes a configuration syntax error with position info.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("click: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokColonColon // ::
	tokArrow      // ->
	tokComma
	tokSemi
	tokLBracket
	tokRBracket
	tokLParen
	tokNumber
	tokArgs // raw parenthesized argument text (lexer consumes to balance)
)

type lexer struct {
	src       []rune
	pos       int
	line, col int
	peekedTok *token
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (lx *lexer) errf(line, col int, format string, a ...any) *ParseError {
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, a...)}
}

func (lx *lexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		r := lx.src[lx.pos]
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		case r == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			line, col := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos+1 <= len(lx.src)-1 {
				if lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf(line, col, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentRune(r rune, first bool) bool {
	if unicode.IsLetter(r) || r == '_' || r == '@' {
		return true
	}
	if !first && (unicode.IsDigit(r) || r == '/') {
		// Click identifiers may contain '/' for compound names.
		return true
	}
	return false
}

func (lx *lexer) peek() (token, error) {
	if lx.peekedTok != nil {
		return *lx.peekedTok, nil
	}
	t, err := lx.lex()
	if err != nil {
		return token{}, err
	}
	lx.peekedTok = &t
	return t, nil
}

func (lx *lexer) next() (token, error) {
	if lx.peekedTok != nil {
		t := *lx.peekedTok
		lx.peekedTok = nil
		return t, nil
	}
	return lx.lex()
}

func (lx *lexer) lex() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: lx.line, col: lx.col}, nil
	}
	line, col := lx.line, lx.col
	r := lx.src[lx.pos]
	switch {
	case r == ':':
		lx.advance()
		if lx.pos < len(lx.src) && lx.src[lx.pos] == ':' {
			lx.advance()
			return token{kind: tokColonColon, text: "::", line: line, col: col}, nil
		}
		return token{}, lx.errf(line, col, "unexpected ':'")
	case r == '-':
		lx.advance()
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '>' {
			lx.advance()
			return token{kind: tokArrow, text: "->", line: line, col: col}, nil
		}
		// A lone '-' is a valid argument (Firewall's "allow -") but those
		// are inside parens; at statement level it is an error.
		return token{}, lx.errf(line, col, "unexpected '-'")
	case r == ',':
		lx.advance()
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case r == ';':
		lx.advance()
		return token{kind: tokSemi, text: ";", line: line, col: col}, nil
	case r == '[':
		lx.advance()
		return token{kind: tokLBracket, text: "[", line: line, col: col}, nil
	case r == ']':
		lx.advance()
		return token{kind: tokRBracket, text: "]", line: line, col: col}, nil
	case r == '(':
		// Consume the whole balanced argument list as one token. Click
		// argument syntax is free-form; splitting happens later.
		lx.advance()
		depth := 1
		var sb strings.Builder
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '(' {
				depth++
			} else if c == ')' {
				depth--
				if depth == 0 {
					lx.advance()
					return token{kind: tokArgs, text: sb.String(), line: line, col: col}, nil
				}
			}
			sb.WriteRune(c)
			lx.advance()
		}
		return token{}, lx.errf(line, col, "unbalanced '('")
	case unicode.IsDigit(r):
		var sb strings.Builder
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.src[lx.pos]) {
			sb.WriteRune(lx.advance())
		}
		return token{kind: tokNumber, text: sb.String(), line: line, col: col}, nil
	case isIdentRune(r, true):
		var sb strings.Builder
		first := true
		for lx.pos < len(lx.src) && isIdentRune(lx.src[lx.pos], first) {
			sb.WriteRune(lx.advance())
			first = false
		}
		return token{kind: tokIdent, text: sb.String(), line: line, col: col}, nil
	}
	return token{}, lx.errf(line, col, "unexpected character %q", string(r))
}

// splitArgs splits a Click argument string on top-level commas, trimming
// whitespace: "RATE 10, LIMIT 5, BURST (1,2)" → ["RATE 10","LIMIT 5","BURST (1,2)"].
func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

// Parse parses a Click configuration string.
func Parse(src string) (*Config, error) {
	p := &parser{lx: newLexer(src), cfg: &Config{}, declared: map[string]bool{}}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.cfg, nil
}

type parser struct {
	lx       *lexer
	cfg      *Config
	declared map[string]bool
	anonSeq  int
}

var reservedWords = map[string]bool{
	"elementclass": true,
	"require":      true,
	"define":       true,
	"import":       true,
}

func (p *parser) run() error {
	for {
		t, err := p.lx.peek()
		if err != nil {
			return err
		}
		switch t.kind {
		case tokEOF:
			return nil
		case tokSemi:
			p.lx.next() // empty statement
		case tokIdent:
			if reservedWords[t.text] {
				return p.lx.errf(t.line, t.col, "construct %q is not supported by this implementation", t.text)
			}
			if err := p.statement(); err != nil {
				return err
			}
		case tokLBracket:
			if err := p.statement(); err != nil {
				return err
			}
		default:
			return p.lx.errf(t.line, t.col, "unexpected token %q", t.text)
		}
	}
}

// statement parses either a declaration list (a, b :: Class(args);) or a
// connection chain (ep -> ep -> ep;), where endpoints may declare anonymous
// elements inline.
func (p *parser) statement() error {
	first, err := p.endpoint()
	if err != nil {
		return err
	}
	t, err := p.lx.peek()
	if err != nil {
		return err
	}
	// Pure declaration statement: "name :: Class(args);" was consumed
	// inside endpoint already.
	if first.wasDecl && t.kind != tokArrow {
		return p.expectSemi()
	}
	// Multi-declaration: name1, name2 :: Class(args)
	if t.kind == tokComma {
		names := []string{first.name}
		if first.wasAnon || first.inPort >= 0 || first.outPort >= 0 {
			return p.lx.errf(t.line, t.col, "declaration name cannot carry port specifiers")
		}
		for {
			t, err = p.lx.peek()
			if err != nil {
				return err
			}
			if t.kind != tokComma {
				break
			}
			p.lx.next()
			nt, err := p.lx.next()
			if err != nil {
				return err
			}
			if nt.kind != tokIdent {
				return p.lx.errf(nt.line, nt.col, "expected element name, got %q", nt.text)
			}
			names = append(names, nt.text)
		}
		cc, err := p.lx.next()
		if err != nil {
			return err
		}
		if cc.kind != tokColonColon {
			return p.lx.errf(cc.line, cc.col, "expected '::' in declaration, got %q", cc.text)
		}
		classTok, err := p.lx.next()
		if err != nil {
			return err
		}
		if classTok.kind != tokIdent {
			return p.lx.errf(classTok.line, classTok.col, "expected class name, got %q", classTok.text)
		}
		args, err := p.optionalArgs()
		if err != nil {
			return err
		}
		for _, n := range names {
			if p.declared[n] {
				return p.lx.errf(classTok.line, classTok.col, "element %q redeclared", n)
			}
			p.declared[n] = true
			p.cfg.Decls = append(p.cfg.Decls, ConfigDecl{Name: n, Class: classTok.text, Args: args})
		}
		return p.expectSemi()
	}
	// Connection chain.
	prev := first
	for {
		t, err = p.lx.peek()
		if err != nil {
			return err
		}
		if t.kind != tokArrow {
			break
		}
		p.lx.next()
		next, err := p.endpoint()
		if err != nil {
			return err
		}
		fp := prev.outPort
		if fp < 0 {
			fp = 0
		}
		tp := next.inPort
		if tp < 0 {
			tp = 0
		}
		p.cfg.Conns = append(p.cfg.Conns, ConfigConn{From: prev.name, FromPort: fp, To: next.name, ToPort: tp})
		prev = next
	}
	if prev == first {
		return p.lx.errf(t.line, t.col, "declaration of %q missing '::' or connection missing '->'", first.name)
	}
	return p.expectSemi()
}

type endpointRef struct {
	name    string
	inPort  int // port specified before the name ([n]name), -1 if none
	outPort int // port specified after the name (name[n]), -1 if none
	wasAnon bool
	wasDecl bool // endpoint carried an inline "name :: Class" declaration
}

// endpoint parses [port] name [port], an anonymous Class(args), or an
// inline declaration name :: Class(args) used mid-chain.
func (p *parser) endpoint() (endpointRef, error) {
	ref := endpointRef{inPort: -1, outPort: -1}
	t, err := p.lx.peek()
	if err != nil {
		return ref, err
	}
	if t.kind == tokLBracket {
		p.lx.next()
		n, err := p.portNumber()
		if err != nil {
			return ref, err
		}
		ref.inPort = n
	}
	nameTok, err := p.lx.next()
	if err != nil {
		return ref, err
	}
	if nameTok.kind != tokIdent {
		return ref, p.lx.errf(nameTok.line, nameTok.col, "expected element name or class, got %q", nameTok.text)
	}
	ref.name = nameTok.text
	t, err = p.lx.peek()
	if err != nil {
		return ref, err
	}
	switch {
	case t.kind == tokColonColon && ref.inPort < 0:
		// Inline declaration: name :: Class(args). (With an input port
		// specifier this cannot be a declaration, so skip.)
		p.lx.next()
		classTok, err := p.lx.next()
		if err != nil {
			return ref, err
		}
		if classTok.kind != tokIdent {
			return ref, p.lx.errf(classTok.line, classTok.col, "expected class name, got %q", classTok.text)
		}
		args, err := p.optionalArgs()
		if err != nil {
			return ref, err
		}
		if p.declared[ref.name] {
			return ref, p.lx.errf(nameTok.line, nameTok.col, "element %q redeclared", ref.name)
		}
		p.declared[ref.name] = true
		p.cfg.Decls = append(p.cfg.Decls, ConfigDecl{Name: ref.name, Class: classTok.text, Args: args})
		ref.wasDecl = true
	case t.kind == tokArgs:
		// Anonymous element: Class(args) in connection position.
		p.lx.next()
		ref = p.makeAnon(ref, nameTok.text, splitArgs(t.text))
	case !p.declared[ref.name] && isClassName(ref.name):
		// A bare undeclared uppercase name is an anonymous instance of
		// that class (Click convention: classes are capitalized).
		ref = p.makeAnon(ref, nameTok.text, nil)
	}
	t, err = p.lx.peek()
	if err != nil {
		return ref, err
	}
	if t.kind == tokLBracket {
		p.lx.next()
		n, err := p.portNumber()
		if err != nil {
			return ref, err
		}
		ref.outPort = n
	}
	return ref, nil
}

func (p *parser) makeAnon(ref endpointRef, class string, args []string) endpointRef {
	p.anonSeq++
	name := fmt.Sprintf("%s@%d", class, p.anonSeq)
	p.declared[name] = true
	p.cfg.Decls = append(p.cfg.Decls, ConfigDecl{Name: name, Class: class, Args: args})
	ref.name = name
	ref.wasAnon = true
	return ref
}

// isClassName applies the Click convention: class names start uppercase.
func isClassName(s string) bool {
	if s == "" {
		return false
	}
	return unicode.IsUpper(rune(s[0]))
}

func (p *parser) portNumber() (int, error) {
	t, err := p.lx.next()
	if err != nil {
		return 0, err
	}
	if t.kind != tokNumber {
		return 0, p.lx.errf(t.line, t.col, "expected port number, got %q", t.text)
	}
	n := 0
	for _, r := range t.text {
		n = n*10 + int(r-'0')
	}
	cl, err := p.lx.next()
	if err != nil {
		return 0, err
	}
	if cl.kind != tokRBracket {
		return 0, p.lx.errf(cl.line, cl.col, "expected ']', got %q", cl.text)
	}
	return n, nil
}

func (p *parser) optionalArgs() ([]string, error) {
	t, err := p.lx.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokArgs {
		return nil, nil
	}
	p.lx.next()
	return splitArgs(t.text), nil
}

func (p *parser) expectSemi() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	if t.kind == tokEOF { // trailing semicolon optional at EOF
		return nil
	}
	if t.kind != tokSemi {
		return p.lx.errf(t.line, t.col, "expected ';', got %q", t.text)
	}
	return nil
}
