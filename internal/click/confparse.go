package click

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Click configuration arguments mix positional values with KEYWORD value
// pairs ("DPI(SIGNATURE attack, DROP true)"). ConfArgs splits a
// pre-split argument list into both forms and offers typed accessors with
// defaults, mirroring Click's cp_va_kparse.

// ConfArgs provides typed access to an element's configuration arguments.
type ConfArgs struct {
	Positional []string
	Keywords   map[string]string
}

// ParseArgs classifies args into positional and keyword arguments. A
// keyword argument is an ALL-CAPS word followed by whitespace and a value.
func ParseArgs(args []string) *ConfArgs {
	ca := &ConfArgs{Keywords: map[string]string{}}
	for _, a := range args {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if i := strings.IndexFunc(a, unicode.IsSpace); i > 0 {
			word := a[:i]
			if isAllCaps(word) {
				ca.Keywords[word] = strings.TrimSpace(a[i+1:])
				continue
			}
		}
		ca.Positional = append(ca.Positional, a)
	}
	return ca
}

func isAllCaps(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsUpper(r) && r != '_' && !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Pos returns positional argument i, or def when absent.
func (ca *ConfArgs) Pos(i int, def string) string {
	if i < len(ca.Positional) {
		return ca.Positional[i]
	}
	return def
}

// PosInt returns positional argument i as an int.
func (ca *ConfArgs) PosInt(i int, def int) (int, error) {
	if i >= len(ca.Positional) {
		return def, nil
	}
	v, err := strconv.Atoi(ca.Positional[i])
	if err != nil {
		return 0, fmt.Errorf("argument %d: %q is not an integer", i+1, ca.Positional[i])
	}
	return v, nil
}

// Key returns keyword kw, or def when absent.
func (ca *ConfArgs) Key(kw, def string) string {
	if v, ok := ca.Keywords[kw]; ok {
		return v
	}
	return def
}

// KeyInt returns keyword kw as an int.
func (ca *ConfArgs) KeyInt(kw string, def int) (int, error) {
	v, ok := ca.Keywords[kw]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", kw, v)
	}
	return n, nil
}

// KeyBool returns keyword kw as a bool (true/false/1/0).
func (ca *ConfArgs) KeyBool(kw string, def bool) (bool, error) {
	v, ok := ca.Keywords[kw]
	if !ok {
		return def, nil
	}
	switch strings.ToLower(v) {
	case "true", "1", "yes":
		return true, nil
	case "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("%s: %q is not a boolean", kw, v)
}

// Unquote strips matched double quotes from a string argument.
func Unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
