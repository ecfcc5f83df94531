package yang

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// initiateRPC is an initiateVNF rpc as the orchestrator frames it.
func initiateRPC() *Data {
	op := NewData("initiateVNF").AddLeaf("vnf_type", "monitor")
	for _, kv := range [][2]string{{"cpu", "0.5"}, {"mem", "64"}} {
		op.Add(NewData("option").AddLeaf("name", kv[0]).AddLeaf("value", kv[1]))
	}
	return NewData("rpc").
		SetAttr("xmlns", "urn:ietf:params:xml:ns:netconf:base:1.0").
		SetAttr("message-id", "17").
		Add(op)
}

// FuzzParseXML holds ParseXML to the encoding/xml parser it replaced:
// on any input both accept or both refuse, and on acceptance they build
// deep-equal trees. The corpus under testdata holds every vnf_starter
// rpc and reply, hellos, an rpc-error, prefixed names, entities, CDATA
// and truncated messages.
func FuzzParseXML(f *testing.F) {
	f.Add(initiateRPC().XML())
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ParseXML(src)
		want, refErr := refParseXML(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseXML(%q): error %v, the reference's %v", src, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseXML(%q):\n got  %#v\n want %#v", src, got, want)
		}
	})
}

// TestParseXMLMatchesReference pins the cases the scanner handles one
// by one, each against the reference's decision and tree.
func TestParseXMLMatchesReference(t *testing.T) {
	for _, src := range []string{
		`<?xml version="1.0" encoding="UTF-8"?><!-- c --><!DOCTYPE rpc [<!ENTITY x "y">]><rpc/>`,
		`<?xml version="1.1"?><a/>`,
		`<?xml encoding='latin1'?><a/>`,
		`<?xml encoding="utf-8" version='1.0'?><a/>`,
		`<??><a/>`,
		`<?1x?><a/>`,
		`<!DOCTYPE a [<!-- > --> <!ELEMENT a (#PCDATA)> '>' ]><a/>`,
		`<!X<>><a/>`,
		`<!><a/>`,
		`<!><a/>>`,
		`<!--a--b--><a/>`,
		`<!---><a/>`,
		`<!----><a/>`,
		`<![CDATA[x]]><a/>`,
		`<![CDAT[x]]><a/>`,
		`text <a/>`,
		"\uFEFF<a/>",
		"\x00<a/>",
		"]]><a/>",
		`&amp;<a/>`,
		`&bogus;<a/>`,
		`</a><b/>`,
		`<a></b>`,
		`<a:b></b>`,
		`<a:b></a:b>`,
		`<a:b:c/>`,
		`<:a>x</:a>`,
		`<a:>x</a:>`,
		`<1a/>`,
		`< a/>`,
		`<a/ >`,
		`<a x='1'y="2"/>`,
		`<a x="1" x="2"/>`,
		`<a p:x="1" q:x="2"/>`,
		`<a x=1/>`,
		`<a x/>`,
		`<a x="<"/>`,
		`<a x="]]>"/>`,
		`<a x="&#34;&apos;&#x3C;&#X3C;"/>`,
		`<a x="&#34"/>`,
		`<a xmlns="u" xmlns:p="v" p:k="1" xmlns:xmlns="w"/>`,
		`<a p:k="1" xmlns:p="xmlns"/>`,
		`<a xmlns:p="xmlns"><b xmlns:p="other" p:k="1"/><c p:k="2"/></a>`,
		`<a xmlns:xml="xmlns" xml:k="1"/>`,
		`<a :xmlns="1" xmlns:="2" q:xmlns="3"/>`,
		`<a>  x &lt; y  </a>`,
		`<a>x<![CDATA[ <y> ]]>z</a>`,
		`<a>x<!-- c -->y<?pi z?>w</a>`,
		`<a>x<b/>y</a>`,
		"<a>\r\nx\ry\r\r\n</a>",
		"<a x=\"1\r\n2\r3\"/>",
		"<a>&#13;\n</a>",
		`<a>&#0;</a>`,
		`<a>&#xD800;</a>`,
		`<a>&#xFFFE;</a>`,
		`<a>&#x110000;</a>`,
		`<a>&#99999999999999999999999;</a>`,
		`<a>&#00000000000000000000065;</a>`,
		`<a>&#x;</a>`,
		`<a>&#;</a>`,
		`<a>&;</a>`,
		`<a>&lt</a>`,
		`<a>& lt;</a>`,
		"<a>\xff</a>",
		"<a>\uFFFE</a>",
		"<a>\u0085x </a>",
		"<é>ü</é>",
		"<a·/>",
		"<·/>",
		"<a\U00010000/>",
		`<a>x</a>trailing <garbage`,
		`<a>`,
		`<a><b></b>`,
		`<a x="1"`,
		`<`,
		``,
		`   `,
		`<!--`,
	} {
		got, err := ParseXML(src)
		want, refErr := refParseXML(src)
		if (err == nil) != (refErr == nil) {
			t.Errorf("ParseXML(%q): error %v, the reference's %v", src, err, refErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("ParseXML(%q):\n got  %#v\n want %#v", src, got, want)
		}
	}
}

// TestNameTables checks the name character tables against encoding/xml
// for every rune of the Basic Multilingual Plane, as the first rune of a
// name and as a later one, and for a sample of the planes above it.
func TestNameTables(t *testing.T) {
	accepts := func(name string) bool {
		_, err := refParseXML("<" + name + "/>")
		return err == nil
	}
	for r := rune(0x80); r <= utf8.MaxRune; r++ {
		if r > 0xFFFF {
			r += 0x3FF
		}
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := isName(name), accepts(name); got != want {
				t.Errorf("isName(%q) = %v, encoding/xml accepts it: %v", name, got, want)
			}
		}
	}
}

// TestXMLMatchesReference: XML renders random trees byte for byte as
// refXML does. Attribute values that need escaping are left out: refXML
// Go-quotes them (TestXMLEscapesAttributes).
func TestXMLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, "'", "\t", "\n", "\r",
		"\x00", "\x1f", "\x7f", "\xff", "\xc3", "é", "\uFFFD", "\uFFFE", "\U0001F600", "]]>", `\`}
	str := func() string {
		var b strings.Builder
		for range rng.Intn(6) {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	plain := func(v string) bool {
		var b strings.Builder
		writeEscaped(&b, v)
		return b.String() == v && strconv.Quote(v) == `"`+v+`"`
	}
	names := []string{"rpc", "vnf_id", "a", "nc:rpc", "x-y.z"}
	var tree func(depth int) *Data
	tree = func(depth int) *Data {
		d := NewData(names[rng.Intn(len(names))])
		for range rng.Intn(4) {
			if v := str(); plain(v) {
				d.SetAttr(names[rng.Intn(len(names))], v)
			}
		}
		if depth < 3 && rng.Intn(2) == 0 {
			for range rng.Intn(4) + 1 {
				d.Add(tree(depth + 1))
			}
		} else {
			d.Text = str()
		}
		return d
	}
	for range 2000 {
		d := tree(0)
		if got, want := d.XML(), refXML(d); got != want {
			t.Fatalf("XML() =\n%q\nthe reference renders\n%q", got, want)
		}
	}
	deep := NewData("leaf").SetAttr("k", "v")
	for range 40 {
		deep = NewData("n").Add(deep)
	}
	if got, want := deep.XML(), refXML(deep); got != want {
		t.Fatalf("a 41-level tree renders\n%s\nthe reference renders\n%s", got, want)
	}
}

// TestXMLEscapesAttributes: attribute values that XML must escape read
// back unchanged. Go quoting, as refXML does it, leaves 1&2 bare, which
// no parser accepts.
func TestXMLEscapesAttributes(t *testing.T) {
	for _, v := range []string{"1&2", `a"b`, "x<y", "p>q", "it's", `back\slash`, "tab\there", "two\nlines", "cr\rlf", "é "} {
		src := NewData("rpc").SetAttr("message-id", v).SetAttr("z", v).XML()
		d, err := ParseXML(src)
		if err != nil {
			t.Errorf("attribute %q renders %q, which does not parse: %v", v, src, err)
			continue
		}
		if d.Attr("message-id") != v || d.Attr("z") != v {
			t.Errorf("attribute %q renders %q, which reads back as %q", v, src, d.Attrs)
		}
	}
}

// TestCodecAllocations pins what parsing and rendering an initiateVNF
// rpc allocate: the scanner cuts the tree from two slabs and shares the
// input's strings, and the renderer grows one buffer.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rpc := initiateRPC()
	src := rpc.XML()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ParseXML(src); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("ParseXML of an initiateVNF rpc allocates %v objects, want at most 6", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = rpc.XML() }); n > 2 {
		t.Errorf("XML of an initiateVNF rpc allocates %v objects, want at most 2", n)
	}
}

// BenchmarkCodec times parsing and rendering an initiateVNF rpc, beside
// the encoding/xml codec it replaced.
func BenchmarkCodec(b *testing.B) {
	rpc := initiateRPC()
	src := rpc.XML()
	for _, bm := range []struct {
		name string
		fn   func()
	}{
		{"parse", func() { _, _ = ParseXML(src) }},
		{"parse-reference", func() { _, _ = refParseXML(src) }},
		{"render", func() { _ = rpc.XML() }},
		{"render-reference", func() { _ = refXML(rpc) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bm.fn()
			}
		})
	}
}
