package yang

import (
	"strings"
	"testing"
	"testing/quick"
)

// testModule models a small slice of the vnf_starter schema.
func testModule() *Module {
	return &Module{
		Name:      "vnf-starter",
		Namespace: "urn:escape:vnf-starter",
		Prefix:    "vnfs",
		Body: []*Node{
			{Name: "vnfs", Kind: KindContainer, Children: []*Node{
				{Name: "vnf", Kind: KindList, Key: "id", Children: []*Node{
					{Name: "id", Kind: KindLeaf, Type: TypeString},
					{Name: "status", Kind: KindLeaf, Type: TypeEnum,
						Enums: []string{"INITIALIZED", "RUNNING", "STOPPED"}},
					{Name: "cpu", Kind: KindLeaf, Type: TypeDecimal64},
					{Name: "ports", Kind: KindLeafList, Type: TypeString},
				}},
			}},
		},
		RPCs: []*Node{
			{Name: "startVNF", Input: []*Node{
				{Name: "vnf_id", Kind: KindLeaf, Type: TypeString, Mandatory: true},
			}, Output: []*Node{
				{Name: "status", Kind: KindLeaf, Type: TypeString},
			}},
			{Name: "connectVNF", Input: []*Node{
				{Name: "vnf_id", Kind: KindLeaf, Type: TypeString, Mandatory: true},
				{Name: "vnf_port", Kind: KindLeaf, Type: TypeString, Mandatory: true},
				{Name: "switch_id", Kind: KindLeaf, Type: TypeString, Mandatory: true},
			}, Output: []*Node{
				{Name: "port", Kind: KindLeaf, Type: TypeUint32},
			}},
		},
	}
}

func TestValidateRPCInputOK(t *testing.T) {
	m := testModule()
	in := NewData("startVNF").AddLeaf("vnf_id", "fwd1")
	if err := m.ValidateRPCInput("startVNF", in); err != nil {
		t.Error(err)
	}
}

func TestValidateRPCInputErrors(t *testing.T) {
	m := testModule()
	cases := []struct {
		name string
		in   *Data
		rpc  string
		want string
	}{
		{"missing mandatory", NewData("startVNF"), "startVNF", "mandatory"},
		{"unknown element", NewData("startVNF").AddLeaf("vnf_id", "x").AddLeaf("bogus", "1"), "startVNF", "not modeled"},
		{"unknown rpc", NewData("nope"), "nope", "no rpc"},
		{"duplicate leaf", NewData("connectVNF").AddLeaf("vnf_id", "a").AddLeaf("vnf_id", "b").AddLeaf("vnf_port", "p").AddLeaf("switch_id", "s"), "connectVNF", "appears"},
	}
	for _, c := range cases {
		err := m.ValidateRPCInput(c.rpc, c.in)
		if err == nil {
			t.Errorf("%s: validation passed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %q, want substring %q", c.name, err, c.want)
		}
	}
}

func TestValidateDataTypesAndLists(t *testing.T) {
	var root *Node
	for _, n := range testModule().Body {
		if n.Name == "vnfs" {
			root = n
		}
	}
	good := NewData("vnfs").Add(
		NewData("vnf").
			AddLeaf("id", "v1").
			AddLeaf("status", "RUNNING").
			AddLeaf("cpu", "0.5").
			AddLeaf("ports", "in").
			AddLeaf("ports", "out"),
	)
	if err := validateChildren(root.Children, good.Children, good.Name); err != nil {
		t.Error(err)
	}
	badEnum := NewData("vnfs").Add(
		NewData("vnf").AddLeaf("id", "v1").AddLeaf("status", "FLYING"),
	)
	if err := validateChildren(root.Children, badEnum.Children, badEnum.Name); err == nil {
		t.Error("bad enum accepted")
	}
	badNum := NewData("vnfs").Add(
		NewData("vnf").AddLeaf("id", "v1").AddLeaf("cpu", "lots"),
	)
	if err := validateChildren(root.Children, badNum.Children, badNum.Name); err == nil {
		t.Error("bad decimal accepted")
	}
	noKey := NewData("vnfs").Add(NewData("vnf").AddLeaf("status", "RUNNING"))
	if err := validateChildren(root.Children, noKey.Children, noKey.Name); err == nil {
		t.Error("missing list key accepted")
	}
}

func TestLeafTypeChecks(t *testing.T) {
	cases := []struct {
		typ  Type
		good []string
		bad  []string
	}{
		{TypeInt32, []string{"0", "-5", "2147483647"}, []string{"x", "2147483648", "1.5"}},
		{TypeUint32, []string{"0", "4294967295"}, []string{"-1", "abc"}},
		{typeBoolean, []string{"true", "false"}, []string{"TRUE", "1", "yes"}},
		{TypeDecimal64, []string{"1.5", "-2", "0", "+0.000001", "007.50"},
			[]string{"one", "NaN", "Inf", "1e3", "0x1p-2", ".5", "1.", "", "+", "-.5", "1.2.3", " 1"}},
	}
	for _, c := range cases {
		n := &Node{Name: "x", Kind: KindLeaf, Type: c.typ}
		for _, g := range c.good {
			if err := checkLeafValue(n, g); err != nil {
				t.Errorf("%v rejected %q: %v", c.typ, g, err)
			}
		}
		for _, b := range c.bad {
			if err := checkLeafValue(n, b); err == nil {
				t.Errorf("%v accepted %q", c.typ, b)
			}
		}
	}
}

func TestYANGRendering(t *testing.T) {
	src := testModule().YANG()
	for _, want := range []string{
		"module vnf-starter {",
		`namespace "urn:escape:vnf-starter";`,
		"container vnfs {",
		"list vnf {",
		`key "id";`,
		"rpc startVNF {",
		"mandatory true;",
		"type enumeration {",
		"enum RUNNING;",
		"leaf-list ports {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered YANG missing %q\n%s", want, src)
		}
	}
}

func TestDataXMLRoundTrip(t *testing.T) {
	d := NewData("vnfs").Add(
		NewData("vnf").
			AddLeaf("id", "v1").
			AddLeaf("status", "RUNNING"),
		NewData("vnf").
			AddLeaf("id", "v2 <&>").
			AddLeaf("status", "STOPPED"),
	)
	xmlStr := d.XML()
	back, err := ParseXML(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "vnfs" || len(back.ChildrenNamed("vnf")) != 2 {
		t.Fatalf("round trip = %s", back.XML())
	}
	if back.Children[1].ChildText("id") != "v2 <&>" {
		t.Errorf("escaped text = %q", back.Children[1].ChildText("id"))
	}
}

func TestParseXMLStripsNamespacePrefixes(t *testing.T) {
	d, err := ParseXML(`<nc:rpc xmlns:nc="urn:x" nc:message-id="5"><foo>bar</foo></nc:rpc>`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "rpc" || d.ChildText("foo") != "bar" {
		t.Errorf("parsed = %s", d.XML())
	}
	if d.Attr("message-id") != "5" {
		t.Errorf("attr = %q", d.Attr("message-id"))
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, src := range []string{"", "<open>", "not xml"} {
		if _, err := ParseXML(src); err == nil {
			t.Errorf("ParseXML(%q) succeeded", src)
		}
	}
}

func TestMergeSemantics(t *testing.T) {
	ds := NewData("config").Add(
		NewData("vnf").AddLeaf("id", "v1").AddLeaf("status", "INITIALIZED"),
	)
	// Leaf overwrite within matching list entry.
	edit := NewData("config").Add(
		NewData("vnf").AddLeaf("id", "v1").AddLeaf("status", "RUNNING"),
	)
	Merge(ds, edit)
	if len(ds.ChildrenNamed("vnf")) != 1 {
		t.Fatalf("merge duplicated list entry: %s", ds.XML())
	}
	if ds.Children[0].ChildText("status") != "RUNNING" {
		t.Errorf("status = %q", ds.Children[0].ChildText("status"))
	}
	// New list entry appends.
	edit2 := NewData("config").Add(
		NewData("vnf").AddLeaf("id", "v2").AddLeaf("status", "INITIALIZED"),
	)
	Merge(ds, edit2)
	if len(ds.ChildrenNamed("vnf")) != 2 {
		t.Fatalf("new entry not appended: %s", ds.XML())
	}
	// New leaf appends.
	Merge(ds, NewData("config").AddLeaf("version", "2"))
	if ds.ChildText("version") != "2" {
		t.Error("new leaf not merged")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := NewData("a").SetAttr("k", "v").Add(NewData("b").AddLeaf("c", "1"))
	c := d.Clone()
	c.Child("b").Child("c").Text = "2"
	c.SetAttr("k", "w")
	if d.Child("b").ChildText("c") != "1" || d.Attr("k") != "v" {
		t.Error("clone shares state with original")
	}
}

// Property: XML round trip preserves leaf text for printable strings.
func TestQuickXMLRoundTrip(t *testing.T) {
	f := func(text string) bool {
		// xml.EscapeText handles arbitrary strings; strip control chars
		// that XML 1.0 cannot represent at all.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
				return -1
			}
			return r
		}, text)
		clean = strings.TrimSpace(clean)
		d := NewData("root").AddLeaf("x", clean)
		back, err := ParseXML(d.XML())
		if err != nil {
			return false
		}
		return back.ChildText("x") == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
