package click_test

import (
	"reflect"
	"testing"

	"escape/internal/catalog"
	"escape/internal/click"
)

// parserCorpus is what parser_test.go parses, good and bad.
var parserCorpus = []string{
	"// a small chain\nsrc :: InfiniteSource(LIMIT 10);\nq :: Queue(100);\nsink :: Discard;\nsrc -> q;",
	"q1, q2, q3 :: Queue(7);",
	"c :: Classifier(12/0806, -);\na :: Discard; b :: Discard;\nin :: InfiniteSource;\nin -> c;\nc[0] -> a;\nc[1] -> b;",
	"a :: InfiniteSource; b :: InfiniteSource;\nm :: Mux2; // fictional\na -> [0]m;\nb -> [1]m;",
	"InfiniteSource(LIMIT 5) -> Counter -> Discard;",
	"q :: Queue;\nInfiniteSource -> q -> Unqueue -> Discard;",
	"/* block\n   comment */\na :: Discard; // line comment",
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
	`src :: RatedSource("hello, world", RATE 100, LIMIT 0); src -> Print(x, MAXLENGTH 8) -> Discard;`,
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
		_, _ = click.NewRouterFromConfig("fuzz", cfg, click.Options{Devices: devs})
	})
}
