package yang

// Data is a generic XML data tree: the payload representation used by the
// NETCONF layer and validated against schemas here. Elements have either
// text or children, never both (mixed content is not YANG data).
type Data struct {
	Name     string
	Attrs    map[string]string
	Text     string
	Children []*Data
}

// NewData creates a named element.
func NewData(name string) *Data { return &Data{Name: name} }

// Leaf creates a named element with text content.
func Leaf(name, text string) *Data { return &Data{Name: name, Text: text} }

// Add appends children and returns the receiver (builder style).
func (d *Data) Add(children ...*Data) *Data {
	d.Children = append(d.Children, children...)
	return d
}

// AddLeaf appends a leaf child and returns the receiver.
func (d *Data) AddLeaf(name, text string) *Data {
	return d.Add(Leaf(name, text))
}

// SetAttr sets an attribute and returns the receiver.
func (d *Data) SetAttr(key, val string) *Data {
	if d.Attrs == nil {
		d.Attrs = map[string]string{}
	}
	d.Attrs[key] = val
	return d
}

// Attr returns an attribute value ("" when absent).
func (d *Data) Attr(key string) string {
	return d.Attrs[key]
}

// Child returns the first child with the given name, or nil.
func (d *Data) Child(name string) *Data {
	for _, c := range d.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the named child ("" when absent).
func (d *Data) ChildText(name string) string {
	if c := d.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns all children with the given name.
func (d *Data) ChildrenNamed(name string) []*Data {
	var out []*Data
	for _, c := range d.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Clone deep-copies the tree.
func (d *Data) Clone() *Data {
	nd := &Data{Name: d.Name, Text: d.Text}
	if d.Attrs != nil {
		nd.Attrs = map[string]string{}
		for k, v := range d.Attrs {
			nd.Attrs[k] = v
		}
	}
	for _, c := range d.Children {
		nd.Children = append(nd.Children, c.Clone())
	}
	return nd
}

// Merge merges src into dst (NETCONF edit-config merge semantics):
// matching containers recurse, leaves overwrite, new children append.
// List entries match when their first leaf child (the key by convention)
// has equal text.
func Merge(dst, src *Data) {
	for _, sc := range src.Children {
		target := findMergeTarget(dst, sc)
		if target == nil {
			dst.Children = append(dst.Children, sc.Clone())
			continue
		}
		if len(sc.Children) == 0 {
			target.Text = sc.Text
			continue
		}
		Merge(target, sc)
	}
}

func findMergeTarget(dst, sc *Data) *Data {
	candidates := dst.ChildrenNamed(sc.Name)
	if len(candidates) == 0 {
		return nil
	}
	if len(sc.Children) == 0 {
		return candidates[0] // leaf overwrite
	}
	// List-entry matching by first-leaf key.
	key := firstLeaf(sc)
	if key == nil {
		return candidates[0]
	}
	for _, c := range candidates {
		if k := c.Child(key.Name); k != nil && k.Text == key.Text {
			return c
		}
	}
	return nil
}

func firstLeaf(d *Data) *Data {
	for _, c := range d.Children {
		if len(c.Children) == 0 {
			return c
		}
	}
	return nil
}
