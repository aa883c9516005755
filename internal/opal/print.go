package opal

import (
	"fmt"
	"strings"

	"repro/internal/object"
	"repro/internal/oop"
)

// PrintString renders a value the way OPAL's printString does. Collections
// show their contents; other objects print as "a ClassName"; classes print
// their name. User classes may override printString with an OPAL method,
// which takes precedence (the printer dispatches through the normal lookup
// when a user-defined method exists).
func (in *Interp) PrintString(v oop.OOP) (string, error) {
	return in.printValue(v, 0)
}

const maxPrintDepth = 6

// maxPrintWidth caps the number of members a collection prints before
// eliding with "..." — printString of a 100,000-member set must stay sane.
const maxPrintWidth = 50

func (in *Interp) printValue(v oop.OOP, depth int) (string, error) {
	if depth > maxPrintDepth {
		return "...", nil
	}
	switch {
	case v == oop.Nil || v == oop.Invalid:
		return "nil", nil
	case v == oop.True:
		return "true", nil
	case v == oop.False:
		return "false", nil
	case v.IsSmallInt():
		return fmt.Sprintf("%d", v.Int()), nil
	case v.IsCharacter():
		return fmt.Sprintf("$%c", v.Char()), nil
	}
	if cl, ok := in.blockFor(v); ok {
		return fmt.Sprintf("aBlock(%d args)", cl.code.numArgs), nil
	}
	// A user-defined printString overrides the structural printer.
	if s, ok, err := in.userPrintString(v); err != nil {
		return "", err
	} else if ok {
		return s, nil
	}
	return in.structuralPrint(v, depth)
}

// userPrintString invokes a printString METHOD (not the primitive) if a
// send of printString to v would run one.
func (in *Interp) userPrintString(v oop.OOP) (string, bool, error) {
	cls, err := in.classOf(v)
	if err != nil {
		return "", false, err
	}
	e, err := in.lookup(cls, "printString", in.s.Symbol("printString"))
	if err != nil || e.method == nil {
		return "", false, err
	}
	res, err := in.run(e.method, v, e.definer, nil)
	if err != nil {
		return "", false, err
	}
	s, ok, err := in.stringValue(res)
	if err != nil || ok {
		return s, ok, err
	}
	return "", false, fmt.Errorf("opal: printString returned a non-string")
}

func (in *Interp) structuralPrint(v oop.OOP, depth int) (string, error) {
	k := in.s.DB().Kernel()
	cls, err := in.s.ClassOf(v)
	if err != nil {
		return "", err
	}
	switch cls {
	case k.String:
		s, _, err := in.stringValue(v)
		return "'" + strings.ReplaceAll(s, "'", "''") + "'", err
	case k.Symbol:
		s, _, err := in.stringValue(v)
		return "#" + s, err
	case k.Float:
		f, err := in.s.FloatValue(v)
		if err != nil {
			return "", err
		}
		s := fmt.Sprintf("%g", f)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	case k.Class:
		return in.classNameOfClass(v), nil
	case k.Association:
		key, _, _ := in.s.Fetch(v, in.s.Symbol("key"))
		val, _, _ := in.s.Fetch(v, in.s.Symbol("value"))
		ks, err := in.printValue(key, depth+1)
		if err != nil {
			return "", err
		}
		vs, err := in.printValue(val, depth+1)
		if err != nil {
			return "", err
		}
		return ks + "->" + vs, nil
	case k.Array, k.OrderedCollection:
		n, err := in.arraySize(v)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(in.article(cls))
		b.WriteString("( ")
		for i := int64(1); i <= n; i++ {
			if i > maxPrintWidth {
				fmt.Fprintf(&b, "... %d more ", n-maxPrintWidth)
				break
			}
			el, _, err := in.s.Fetch(v, oop.MustInt(i))
			if err != nil {
				return "", err
			}
			s, err := in.printValue(el, depth+1)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
			b.WriteByte(' ')
		}
		b.WriteString(")")
		return b.String(), nil
	case k.Set, k.Bag:
		ms, _, err := in.setMembers(v)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(in.article(cls))
		b.WriteString("( ")
		for i, m := range ms {
			if i >= maxPrintWidth {
				fmt.Fprintf(&b, "... %d more ", len(ms)-maxPrintWidth)
				break
			}
			s, err := in.printValue(m, depth+1)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
			b.WriteByte(' ')
		}
		b.WriteString(")")
		return b.String(), nil
	case k.Dictionary, k.SystemDictionary:
		kvs, err := in.dictPairs(v)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(in.article(cls))
		b.WriteString("( ")
		for i, kv := range kvs {
			if i >= maxPrintWidth {
				fmt.Fprintf(&b, "... %d more ", len(kvs)-maxPrintWidth)
				break
			}
			ks, err := in.printValue(kv[0], depth+1)
			if err != nil {
				return "", err
			}
			vs, err := in.printValue(kv[1], depth+1)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s->%s ", ks, vs)
		}
		b.WriteString(")")
		return b.String(), nil
	}
	// Byte objects of user-defined classes print like strings with a class
	// tag; generic named objects print as "a ClassName".
	ob, err := in.s.Object(v)
	if err != nil {
		return "", err
	}
	if ob.Format == object.FormatBytes {
		b, err := in.s.BytesOf(v)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s('%s')", in.article(cls), string(b)), nil
	}
	return in.article(cls), nil
}

// article forms "a ClassName" / "an Apple".
func (in *Interp) article(cls oop.OOP) string {
	name := in.classNameOfClass(cls)
	if name == "" {
		return "anObject"
	}
	switch name[0] {
	case 'A', 'E', 'I', 'O', 'U':
		return "an " + name
	}
	return "a " + name
}
