package opal

import (
	"fmt"

	"repro/internal/oop"
)

// installCollectionPrims registers the concrete collection primitives.
// Generic protocol (select:, collect:, inject:into:, ...) is written in
// OPAL itself (image.go) on top of these.
func (in *Interp) installCollectionPrims() {
	// --- Array / OrderedCollection (indexed) ---
	idxAt := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() {
			return oop.Invalid, fmt.Errorf("opal: index must be an integer")
		}
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		i := a[0].Int()
		if i < 1 || i > n {
			return oop.Invalid, fmt.Errorf("opal: index %d out of bounds 1..%d", i, n)
		}
		v, _, err := in.s.Fetch(r, a[0])
		return v, err
	}
	idxAtPut := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() {
			return oop.Invalid, fmt.Errorf("opal: index must be an integer")
		}
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		i := a[0].Int()
		if i < 1 || i > n {
			return oop.Invalid, fmt.Errorf("opal: index %d out of bounds 1..%d", i, n)
		}
		if err := in.s.Store(r, a[0], a[1]); err != nil {
			return oop.Invalid, err
		}
		return a[1], nil
	}
	idxSize := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		return oop.MustInt(n), nil
	}
	idxDo := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		for i := int64(1); i <= n; i++ {
			v, _, err := in.s.Fetch(r, oop.MustInt(i))
			if err != nil {
				return oop.Invalid, err
			}
			if _, err := in.callBlock(cl, []oop.OOP{v}); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	}
	for _, cls := range []string{"Array", "OrderedCollection"} {
		in.reg(cls, "at:", idxAt)
		in.reg(cls, "at:put:", idxAtPut)
		in.reg(cls, "size", idxSize)
		in.reg(cls, "do:", idxDo)
	}
	in.reg("OrderedCollection", "add:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(r, oop.MustInt(n+1), a[0]); err != nil {
			return oop.Invalid, err
		}
		if err := in.setArraySize(r, n+1); err != nil {
			return oop.Invalid, err
		}
		return a[0], nil
	})
	in.reg("OrderedCollection", "addLast:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.Send(r, "add:", a[0])
	})
	in.reg("OrderedCollection", "removeLast", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		if n == 0 {
			return oop.Invalid, fmt.Errorf("opal: removeLast on empty collection")
		}
		v, _, err := in.s.Fetch(r, oop.MustInt(n))
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Remove(r, oop.MustInt(n)); err != nil {
			return oop.Invalid, err
		}
		if err := in.setArraySize(r, n-1); err != nil {
			return oop.Invalid, err
		}
		return v, nil
	})
	first := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.Send(r, "at:", oop.MustInt(1))
	}
	last := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, err := in.arraySize(r)
		if err != nil {
			return oop.Invalid, err
		}
		return in.Send(r, "at:", oop.MustInt(n))
	}
	for _, cls := range []string{"Array", "OrderedCollection"} {
		in.reg(cls, "first", first)
		in.reg(cls, "last", last)
	}

	// --- Set (alias-labeled sets, §5.1) ---
	in.reg("Set", "add:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		// Set semantics: no structural duplicates.
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, m := range ms {
			if eq, err := in.equalValues(m, a[0]); err != nil || eq {
				return a[0], err
			}
		}
		if _, err := in.s.AddToSet(r, a[0]); err != nil {
			return oop.Invalid, err
		}
		return a[0], nil
	})
	in.reg("Bag", "add:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if _, err := in.s.AddToSet(r, a[0]); err != nil {
			return oop.Invalid, err
		}
		return a[0], nil
	})
	setRemove := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		ms, ns, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		for i, m := range ms {
			eq, err := in.equalValues(m, a[0])
			if err != nil {
				return oop.Invalid, err
			}
			if eq {
				if err := in.s.RemoveFromSet(r, ns[i]); err != nil {
					return oop.Invalid, err
				}
				return a[0], nil
			}
		}
		return oop.Invalid, fmt.Errorf("opal: remove: value not found")
	}
	setSize := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		return oop.MustInt(int64(len(ms))), nil
	}
	setDo := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, m := range ms {
			if _, err := in.callBlock(cl, []oop.OOP{m}); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	}
	setIncludes := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, m := range ms {
			if eq, err := in.equalValues(m, a[0]); err != nil || eq {
				return oop.True, err
			}
		}
		return oop.False, nil
	}
	for _, cls := range []string{"Set", "Bag"} {
		in.reg(cls, "remove:", setRemove)
		in.reg(cls, "size", setSize)
		in.reg(cls, "do:", setDo)
		in.reg(cls, "includes:", setIncludes)
	}
	// Directory hint (paper §6: "hints given in OPAL for structuring
	// directories"): aSet indexOn: 'salary' or indexOn: #(dept name).
	in.reg("Set", "indexOn:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		var path []string
		s, ok, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			path = []string{s}
		} else if sym, ok := in.s.SymbolName(a[0]); ok {
			path = []string{sym}
		} else {
			vals, err := in.arrayValues(a[0])
			if err != nil {
				return oop.Invalid, err
			}
			for _, v := range vals {
				s, ok, err := in.stringValue(v)
				if err != nil {
					return oop.Invalid, err
				}
				if ok {
					path = append(path, s)
				} else if sym, ok := in.s.SymbolName(v); ok {
					path = append(path, sym)
				} else {
					return oop.Invalid, fmt.Errorf("opal: indexOn: path must be names")
				}
			}
		}
		if err := in.s.CreateIndex(r, path); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})

	// --- Dictionary ---
	// Keys that are symbols, strings or integers are stored directly as
	// element names (so path expressions see them); other keys fall back to
	// alias-labeled Associations.
	dictKeyName := func(in *Interp, key oop.OOP) (oop.OOP, bool, error) {
		if key.IsSmallInt() {
			return key, true, nil
		}
		s, ok, err := in.stringValue(key)
		if err != nil {
			return oop.Invalid, false, err
		}
		if ok {
			return in.s.Symbol(s), true, nil
		}
		if _, ok := in.s.SymbolName(key); ok {
			return key, true, nil
		}
		return oop.Invalid, false, nil
	}
	in.reg("Dictionary", "at:put:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name, ok, err := dictKeyName(in, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			if err := in.s.Store(r, name, a[1]); err != nil {
				return oop.Invalid, err
			}
			return a[1], nil
		}
		// Object key: reuse or add an Association.
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		if i, err := in.assocIndex(ms, a[0]); err != nil {
			return oop.Invalid, err
		} else if i >= 0 {
			if err := in.s.Store(ms[i], in.s.Symbol("value"), a[1]); err != nil {
				return oop.Invalid, err
			}
			return a[1], nil
		}
		assoc, err := in.Send(a[0], "->", a[1])
		if err != nil {
			return oop.Invalid, err
		}
		if _, err := in.s.AddToSet(r, assoc); err != nil {
			return oop.Invalid, err
		}
		return a[1], nil
	})
	dictAt := func(in *Interp, r oop.OOP, key oop.OOP) (oop.OOP, bool, error) {
		name, ok, err := dictKeyName(in, key)
		if err != nil {
			return oop.Invalid, false, err
		}
		if ok {
			v, found, err := in.s.Fetch(r, name)
			if err != nil {
				return oop.Invalid, false, err
			}
			return v, found && v != oop.Nil, nil
		}
		ms, _, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, false, err
		}
		i, err := in.assocIndex(ms, key)
		if err != nil || i < 0 {
			return oop.Nil, false, err
		}
		v, _, err := in.s.Fetch(ms[i], in.s.Symbol("value"))
		return v, true, err
	}
	in.reg("Dictionary", "at:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, found, err := dictAt(in, r, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if !found {
			return oop.Invalid, fmt.Errorf("opal: key not found: %s", in.safePrint(a[0]))
		}
		return v, nil
	})
	in.reg("Dictionary", "at:ifAbsent:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, found, err := dictAt(in, r, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if found {
			return v, nil
		}
		if cl, isBlock := in.blockFor(a[1]); isBlock {
			return in.callBlock(cl, nil)
		}
		return a[1], nil
	})
	in.reg("Dictionary", "includesKey:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		_, found, err := dictAt(in, r, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		return oop.FromBool(found), nil
	})
	in.reg("Dictionary", "removeKey:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name, ok, err := dictKeyName(in, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			if v, found, err := in.s.Fetch(r, name); err != nil {
				return oop.Invalid, err
			} else if !found || v == oop.Nil {
				return oop.Invalid, fmt.Errorf("opal: key not found: %s", in.safePrint(a[0]))
			}
			if err := in.s.Remove(r, name); err != nil {
				return oop.Invalid, err
			}
			return a[0], nil
		}
		ms, ns, err := in.setMembers(r)
		if err != nil {
			return oop.Invalid, err
		}
		i, err := in.assocIndex(ms, a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if i < 0 {
			return oop.Invalid, fmt.Errorf("opal: key not found")
		}
		if err := in.s.Remove(r, ns[i]); err != nil {
			return oop.Invalid, err
		}
		return a[0], nil
	})
	// keysAndValuesDo: iterates both direct elements and associations.
	in.reg("Dictionary", "keysAndValuesDo:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		kvs, err := in.dictPairs(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, kv := range kvs {
			if _, err := in.callBlock(cl, []oop.OOP{kv[0], kv[1]}); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	})
	in.reg("Dictionary", "keys", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		kvs, err := in.dictPairs(r)
		if err != nil {
			return oop.Invalid, err
		}
		keys := make([]oop.OOP, len(kvs))
		for i, kv := range kvs {
			keys[i] = kv[0]
		}
		return in.newArrayWith(keys)
	})
	in.reg("Dictionary", "values", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		kvs, err := in.dictPairs(r)
		if err != nil {
			return oop.Invalid, err
		}
		vals := make([]oop.OOP, len(kvs))
		for i, kv := range kvs {
			vals[i] = kv[1]
		}
		return in.newArrayWith(vals)
	})
	in.reg("Dictionary", "size", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		kvs, err := in.dictPairs(r)
		if err != nil {
			return oop.Invalid, err
		}
		return oop.MustInt(int64(len(kvs))), nil
	})
	in.reg("Dictionary", "do:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		kvs, err := in.dictPairs(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, kv := range kvs {
			if _, err := in.callBlock(cl, []oop.OOP{kv[1]}); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	})

	// --- Association ---
	in.reg("Association", "key", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, in.s.Symbol("key"))
		return v, err
	})
	in.reg("Association", "value", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, in.s.Symbol("value"))
		return v, err
	})
}

// assocIndex returns the index in ms of the Association whose key equals
// key, or -1 if there is none.
func (in *Interp) assocIndex(ms []oop.OOP, key oop.OOP) (int, error) {
	keySym, assocCls := in.s.Symbol("key"), in.s.DB().Kernel().Association
	for i, m := range ms {
		if cls, err := in.s.ClassOf(m); err != nil {
			return -1, err
		} else if cls != assocCls {
			continue
		}
		kv, _, err := in.s.Fetch(m, keySym)
		if err != nil {
			return -1, err
		}
		if eq, err := in.equalValues(kv, key); err != nil {
			return -1, err
		} else if eq {
			return i, nil
		}
	}
	return -1, nil
}

// dictPairs lists a Dictionary's (key, value) pairs: direct elements first
// (key rendered as the name symbol or integer), then associations.
func (in *Interp) dictPairs(r oop.OOP) ([][2]oop.OOP, error) {
	names, err := in.s.ElementNames(r)
	if err != nil {
		return nil, err
	}
	var out [][2]oop.OOP
	keySym, valSym := in.s.Symbol("key"), in.s.Symbol("value")
	assocCls := in.s.DB().Kernel().Association
	for _, n := range names {
		if in.isHiddenName(n) {
			continue
		}
		v, ok, err := in.s.Fetch(r, n)
		if err != nil {
			return nil, err
		}
		if !ok || v == oop.Nil {
			continue
		}
		if v.IsHeap() && in.s.IsAlias(n) {
			cls, err := in.s.ClassOf(v)
			if err != nil {
				return nil, err
			}
			if cls == assocCls {
				k, _, _ := in.s.Fetch(v, keySym)
				val, _, _ := in.s.Fetch(v, valSym)
				out = append(out, [2]oop.OOP{k, val})
				continue
			}
		}
		out = append(out, [2]oop.OOP{n, v})
	}
	return out, nil
}
