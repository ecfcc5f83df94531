package click_test

import (
	"reflect"
	"testing"

	"escape/internal/catalog"
	"escape/internal/click"
)

// parserCorpus is what parser_test.go parses, good and bad.
var parserCorpus = []string{
	"// a small chain\nsrc :: FromDevice(in);\nq :: Queue(100);\nsink :: ToDevice(out);\nsrc -> q -> sink;",
	"q1, q2, q3 :: Queue(7);",
	"nat :: NAT(PUBLIC 192.0.2.1);\nFromDevice(in) -> [0]nat;\nnat[0] -> Queue -> ToDevice(out);\nFromDevice(rin) -> [1]nat;\nnat[1] -> Queue -> ToDevice(rout);",
	"a :: FromDevice(in); b :: FromDevice(out);\nm :: Mux2; // fictional\na -> [0]m;\nb -> [1]m;",
	"FromDevice(in) -> Counter -> ToDevice(out);",
	"q :: Queue;\nFromDevice(in) -> q -> RatedUnqueue(RATE 100) -> ToDevice(out);",
	"/* block\n   comment */\na :: Counter; // line comment",
	"a ::;",
	"a :: Queue(",
	"a -> ;",
	"elementclass Foo {};",
	"a :: Queue; a :: Queue;",
	"/* unterminated",
	"a :: Queue b :: Queue;",
	"a[x] -> b;",
	"$ :: Queue;",
	"justaname;",
	"a :: Queue;\nb ::;\n",
	`FromDevice(in) -> dpi :: DPI(SIGNATURE "hello, world", DROP true) -> Queue(8) -> ToDevice(out, BURST 8);`,
}

// FuzzParseConfig fuzzes the path a NETCONF-delivered VNF config takes:
// Parse, ParseArgs over every declaration, then router construction over
// the two devices a VNF container has. Nothing may panic, and a config that
// parses once parses to the same thing twice.
func FuzzParseConfig(f *testing.F) {
	cat := catalog.Default()
	for _, name := range cat.Names() {
		typ, err := cat.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		cfg, err := typ.Render(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cfg)
	}
	for _, src := range parserCorpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := click.Parse(src)
		if err != nil {
			return
		}
		again, err := click.Parse(src)
		if err != nil || !reflect.DeepEqual(cfg, again) {
			t.Fatalf("second parse differs: %v\n%+v\n%+v", err, cfg, again)
		}
		for _, d := range cfg.Decls {
			click.ParseArgs(d.Args)
		}
		devs := map[string]click.Device{"in": click.NewChanDevice("in", 1), "out": click.NewChanDevice("out", 1)}
		_, _ = click.NewRouter("fuzz", src, click.Options{Devices: devs})
	})
}
