package opal

import (
	"fmt"

	"repro/internal/oop"
)

// Typed element names — the extension the paper flags as future work in
// §5.4 ("We still feel that some typing of element names could give us big
// performance advantages ... and we are looking at this extension to OPAL,
// as are others [BI, Ha]").
//
// A class may constrain an element name to a class:
//
//	Employee constrain: #salary to: Number.
//
// Every subsequent store into that element — through instance-variable
// assignment, the at:put: protocol, or path assignment — verifies the value
// is nil or a kind of the constraint class, along the whole class chain.
// Constraints live in the class object's #constraints dictionary, so they
// are persistent, versioned and inherited like everything else.

// checkConstraint enforces any element-name typing declared for obj's
// class chain on a store of value under name.
func (in *Interp) checkConstraint(obj, name, value oop.OOP) error {
	if !obj.IsHeap() {
		return nil
	}
	consSym := in.s.Symbol("constraints")
	objCls, err := in.classOf(obj)
	if err != nil {
		return err
	}
	for c := objCls; c.IsHeap(); {
		cons, ok, err := in.s.Fetch(c, consSym)
		if err != nil {
			return err
		}
		if ok && cons.IsHeap() {
			want, ok2, err := in.s.Fetch(cons, name)
			if err != nil {
				return err
			}
			if ok2 && want != oop.Nil && want.IsHeap() {
				if value == oop.Nil {
					return nil // nil is always storable (absent element)
				}
				if ok, err := in.valueIsKindOf(value, want); err != nil || ok {
					return err
				}
				nameStr, _ := in.s.SymbolName(name)
				return fmt.Errorf("opal: constraint violation: %s of %s must be a %s, not %s",
					nameStr, in.classNameOfClass(objCls), in.classNameOfClass(want), in.safePrint(value))
			}
		}
		sup, _, err := in.s.Fetch(c, in.wk.Superclass)
		if err != nil {
			return err
		}
		c = sup
	}
	return nil
}

func (in *Interp) valueIsKindOf(value, class oop.OOP) (bool, error) {
	c, err := in.classOf(value)
	for err == nil && c.IsHeap() {
		if c == class {
			return true, nil
		}
		c, _, err = in.s.Fetch(c, in.wk.Superclass)
	}
	return false, err
}

// installConstraintPrims registers the declaration protocol.
func (in *Interp) installConstraintPrims() {
	in.reg("Class", "constrain:to:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name := a[0]
		s, ok, err := in.stringValue(name)
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			name = in.s.Symbol(s)
		} else if _, ok := in.s.SymbolName(name); !ok {
			return oop.Invalid, fmt.Errorf("opal: constrain:to: needs an element name")
		}
		is, err := in.isInstance(a[1], in.s.DB().Kernel().Class)
		if err != nil {
			return oop.Invalid, err
		}
		if !is {
			return oop.Invalid, fmt.Errorf("opal: constrain:to: needs a class")
		}
		cons, ok, err := in.s.Fetch(r, in.s.Symbol("constraints"))
		if err != nil {
			return oop.Invalid, err
		}
		if !ok || !cons.IsHeap() {
			d, err := in.s.NewObject(in.s.DB().Kernel().Dictionary)
			if err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(r, in.s.Symbol("constraints"), d); err != nil {
				return oop.Invalid, err
			}
			cons = d
		}
		if err := in.s.Store(cons, name, a[1]); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	in.reg("Class", "constraintOn:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name := a[0]
		s, ok, err := in.stringValue(name)
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			name = in.s.Symbol(s)
		}
		for c := r; c.IsHeap(); {
			cons, ok, err := in.s.Fetch(c, in.s.Symbol("constraints"))
			if err != nil {
				return oop.Invalid, err
			}
			if ok && cons.IsHeap() {
				if want, ok2, _ := in.s.Fetch(cons, name); ok2 && want != oop.Nil {
					return want, nil
				}
			}
			sup, _, err := in.s.Fetch(c, in.wk.Superclass)
			if err != nil {
				return oop.Invalid, err
			}
			c = sup
		}
		return oop.Nil, nil
	})
}
