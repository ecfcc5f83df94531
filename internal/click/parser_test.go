package click

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDeclAndConn(t *testing.T) {
	cfg, err := Parse(`
		// a small chain
		src :: FromDevice(in, BURST 10);
		q :: Queue(100);
		sink :: ToDevice(out);
		src -> q;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Decls) != 3 {
		t.Fatalf("decls = %d, want 3", len(cfg.Decls))
	}
	if cfg.Decls[0].Class != "FromDevice" || cfg.Decls[0].Args[1] != "BURST 10" {
		t.Errorf("decl[0] = %+v", cfg.Decls[0])
	}
	if len(cfg.Conns) != 1 || cfg.Conns[0].From != "src" || cfg.Conns[0].To != "q" {
		t.Errorf("conns = %+v", cfg.Conns)
	}
}

func TestParseMultiDecl(t *testing.T) {
	cfg, err := Parse(`q1, q2, q3 :: Queue(7);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Decls) != 3 {
		t.Fatalf("decls = %d, want 3", len(cfg.Decls))
	}
	for i, want := range []string{"q1", "q2", "q3"} {
		if cfg.Decls[i].Name != want || cfg.Decls[i].Class != "Queue" || cfg.Decls[i].Args[0] != "7" {
			t.Errorf("decl[%d] = %+v", i, cfg.Decls[i])
		}
	}
}

func TestParseChainWithPorts(t *testing.T) {
	cfg, err := Parse(`
		n :: NAT(PUBLIC 192.0.2.1);
		a :: ToDevice(out); b :: ToDevice(rout);
		in :: FromDevice(in);
		in -> n;
		n[0] -> a;
		n[1] -> b;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Conns) != 3 {
		t.Fatalf("conns = %+v", cfg.Conns)
	}
	if cfg.Conns[1].FromPort != 0 || cfg.Conns[2].FromPort != 1 {
		t.Errorf("ports = %+v", cfg.Conns)
	}
}

func TestParseInputPortSpecifier(t *testing.T) {
	cfg, err := Parse(`
		a :: FromDevice(in); b :: FromDevice(rin);
		m :: Mux2; // fictional, parser does not resolve classes
		a -> [0]m;
		b -> [1]m;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Conns[0].ToPort != 0 || cfg.Conns[1].ToPort != 1 {
		t.Errorf("conns = %+v", cfg.Conns)
	}
}

func TestParseAnonymousElements(t *testing.T) {
	cfg, err := Parse(`FromDevice(in) -> Counter -> ToDevice(out);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Decls) != 3 {
		t.Fatalf("decls = %+v", cfg.Decls)
	}
	if len(cfg.Conns) != 2 {
		t.Fatalf("conns = %+v", cfg.Conns)
	}
	// Anonymous names are derived from the class.
	for _, d := range cfg.Decls {
		if !strings.Contains(d.Name, "@") {
			t.Errorf("anonymous element got name %q", d.Name)
		}
	}
}

func TestParseMixedAnonymousAndNamed(t *testing.T) {
	cfg, err := Parse(`
		q :: Queue;
		FromDevice(in) -> q -> RatedUnqueue -> ToDevice(out);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Decls) != 4 { // q + 3 anonymous
		t.Fatalf("decls = %+v", cfg.Decls)
	}
	if len(cfg.Conns) != 3 {
		t.Fatalf("conns = %+v", cfg.Conns)
	}
	if cfg.Conns[0].To != "q" || cfg.Conns[1].From != "q" {
		t.Errorf("conns = %+v", cfg.Conns)
	}
}

func TestParseComments(t *testing.T) {
	cfg, err := Parse(`
		/* block
		   comment */
		a :: Counter; // line comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Decls) != 1 {
		t.Fatalf("decls = %+v", cfg.Decls)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"a ::;", "expected class name"},
		{"a :: Queue(", "unbalanced"},
		{"a -> ;", "expected element name"},
		{"elementclass Foo {};", "not supported"},
		{"a :: Queue; a :: Queue;", "redeclared"},
		{"/* unterminated", "unterminated"},
		{"a :: Queue b :: Queue;", "expected ';'"},
		{"a[x] -> b;", "expected port number"},
		{"$ :: Queue;", "unexpected character"},
		{"justaname;", "missing"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("a :: Queue;\nb ::;\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestSplitArgs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a, b", []string{"a", "b"}},
		{"RATE 10, LIMIT 20", []string{"RATE 10", "LIMIT 20"}},
		{"f(1,2), g", []string{"f(1,2)", "g"}},
		{" spaced , out ", []string{"spaced", "out"}},
		{"a,", []string{"a", ""}},
	}
	for _, c := range cases {
		got := splitArgs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitArgs(%q) = %#v, want %#v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitArgs(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseArgsKeywords(t *testing.T) {
	ca := ParseArgs([]string{"hello", "RATE 10", "LIMIT 5", "BURST_X 2"})
	if ca.Pos(0, "") != "hello" {
		t.Errorf("positional = %v", ca.Positional)
	}
	if v, _ := ca.KeyInt("RATE", 0); v != 10 {
		t.Errorf("RATE = %d", v)
	}
	if v, _ := ca.KeyInt("LIMIT", 0); v != 5 {
		t.Errorf("LIMIT = %d", v)
	}
	if v, _ := ca.KeyInt("BURST_X", 0); v != 2 {
		t.Errorf("BURST_X = %d", v)
	}
	if v, _ := ca.KeyInt("MISSING", 42); v != 42 {
		t.Errorf("default = %d", v)
	}
}

func TestParseArgsErrors(t *testing.T) {
	ca := ParseArgs([]string{"RATE abc"})
	if _, err := ca.KeyInt("RATE", 0); err == nil {
		t.Error("non-integer keyword accepted")
	}
	ca2 := ParseArgs([]string{"xyz"})
	if _, err := ca2.PosInt(0, 0); err == nil {
		t.Error("non-integer positional accepted")
	}
}

// Property: the parser never panics on arbitrary input.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: declaration count equals the number of '::' declarations plus
// anonymous class mentions for well-formed generated chains.
func TestQuickParseGeneratedChains(t *testing.T) {
	f := func(n uint8) bool {
		hops := int(n%5) + 1
		var sb strings.Builder
		sb.WriteString("src :: FromDevice(in);\nsrc")
		for i := 0; i < hops; i++ {
			sb.WriteString(" -> Counter")
		}
		sb.WriteString(" -> ToDevice(out);\n")
		cfg, err := Parse(sb.String())
		if err != nil {
			return false
		}
		return len(cfg.Decls) == hops+2 && len(cfg.Conns) == hops+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
