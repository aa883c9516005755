package opal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/auth"
	"repro/internal/object"

	"repro/internal/oop"
)

// installBlockPrims registers block invocation.
func (in *Interp) installBlockPrims() {
	call := func(n int) primFn {
		return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
			cl, err := in.mustBlock(r)
			if err != nil {
				return oop.Invalid, err
			}
			return in.callBlock(cl, a[:n])
		}
	}
	in.reg("Block", "value", call(0))
	in.reg("Block", "value:", call(1))
	in.reg("Block", "value:value:", call(2))
	in.reg("Block", "value:value:value:", call(3))
	in.reg("Block", "numArgs", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(r)
		if err != nil {
			return oop.Invalid, err
		}
		return oop.MustInt(int64(cl.code.numArgs)), nil
	})
	// Fallback loop protocol for blocks held in variables (the compiler
	// inlines the literal-block forms).
	in.reg("Block", "whileTrue:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cond, err := in.mustBlock(r)
		if err != nil {
			return oop.Invalid, err
		}
		body, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		for {
			c, err := in.callBlock(cond, nil)
			if err != nil {
				return oop.Invalid, err
			}
			b, ok := c.Bool()
			if !ok {
				return oop.Invalid, fmt.Errorf("opal: whileTrue: condition not Boolean")
			}
			if !b {
				return oop.Nil, nil
			}
			if _, err := in.callBlock(body, nil); err != nil {
				return oop.Invalid, err
			}
		}
	})
}

// selectorArity answers how many arguments a message takes: one per colon
// of a keyword selector, one for a binary selector, none for a unary one.
func selectorArity(sel string) int {
	if n := strings.Count(sel, ":"); n > 0 {
		return n
	}
	if sel != "" && !isLetter(sel[0]) {
		return 1
	}
	return 0
}

// installReflectionPrims adds perform:-style reflective dispatch and the
// sorting primitive backing asSortedCollection:.
func (in *Interp) installReflectionPrims() {
	selOf := func(v oop.OOP) (string, bool, error) {
		if s, ok := in.s.SymbolName(v); ok {
			return s, true, nil
		}
		return in.stringValue(v)
	}
	perform := func(n int) primFn {
		return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
			sel, ok, err := selOf(a[0])
			if err != nil {
				return oop.Invalid, err
			}
			if !ok {
				return oop.Invalid, fmt.Errorf("opal: perform: needs a selector")
			}
			if want := selectorArity(sel); want != n {
				return oop.Invalid, fmt.Errorf("opal: perform: #%s takes %d arguments, given %d", sel, want, n)
			}
			return in.Send(r, sel, a[1:n+1]...)
		}
	}
	in.reg("Object", "perform:", perform(0))
	in.reg("Object", "perform:with:", perform(1))
	in.reg("Object", "perform:with:with:", perform(2))

	// In-place sort of an indexed collection with a two-argument block
	// comparator ([:a :b | a <= b]).
	sortPrim := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		vals, err := in.arrayValues(r)
		if err != nil {
			return oop.Invalid, err
		}
		var sortErr error
		sort.SliceStable(vals, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			res, err := in.callBlock(cl, []oop.OOP{vals[i], vals[j]})
			if err != nil {
				sortErr = err
				return false
			}
			b, _ := res.Bool()
			return b
		})
		if sortErr != nil {
			return oop.Invalid, sortErr
		}
		for i, v := range vals {
			if err := in.s.Store(r, oop.MustInt(int64(i+1)), v); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	}
	in.reg("OrderedCollection", "sort:", sortPrim)
	in.reg("Array", "sort:", sortPrim)

	// asArray materializes any indexed collection as a fresh Array.
	asArray := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		vals, err := in.arrayValues(r)
		if err != nil {
			return oop.Invalid, err
		}
		return in.newArrayWith(vals)
	}
	in.reg("OrderedCollection", "asArray", asArray)
	in.reg("Array", "asArray", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return r, nil
	})
}

// installHistoryPrims exposes object history to OPAL: the per-element
// association tables of §5.3.2/§6 as first-class data.
func (in *Interp) installHistoryPrims() {
	// obj historyOf: #salary -> OrderedCollection of (time -> value)
	// associations, oldest first, committed states only.
	in.reg("Object", "historyOf:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name := a[0]
		s, ok, err := in.stringValue(name)
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			name = in.s.Symbol(s)
		}
		hist, err := in.s.History(r, name)
		if err != nil {
			return oop.Invalid, err
		}
		k := in.s.DB().Kernel()
		out, err := in.s.NewObject(k.OrderedCollection)
		if err != nil {
			return oop.Invalid, err
		}
		for i, h := range hist {
			t, ok := oop.FromInt(int64(h.T))
			if !ok {
				continue
			}
			assoc, err := in.Send(t, "->", h.Value)
			if err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(out, oop.MustInt(int64(i+1)), assoc); err != nil {
				return oop.Invalid, err
			}
		}
		if err := in.setArraySize(out, int64(len(hist))); err != nil {
			return oop.Invalid, err
		}
		return out, nil
	})
	// obj changedTimesOf: #salary -> Array of transaction times.
	in.reg("Object", "changedTimesOf:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name := a[0]
		s, ok, err := in.stringValue(name)
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			name = in.s.Symbol(s)
		}
		hist, err := in.s.History(r, name)
		if err != nil {
			return oop.Invalid, err
		}
		times := make([]oop.OOP, 0, len(hist))
		for _, h := range hist {
			if t, ok := oop.FromInt(int64(h.T)); ok {
				times = append(times, t)
			}
		}
		return in.newArrayWith(times)
	})
}

// installSystemPrims wires the database-system protocol: transactions, the
// time dial, queries, users and the Transcript (paper §6: "classes and
// primitive methods ... to provide transaction control, storage hints and
// requests for replication").
func (in *Interp) installSystemPrims() {
	// The System and Transcript globals are bound to singleton objects by
	// installKernelMethods; their behavior lives on their classes.
	in.reg("SystemAccess", "commitTransaction", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if _, err := in.s.Commit(); err != nil {
			return oop.False, nil // conflict: the session has been refreshed
		}
		return oop.True, nil
	})
	in.reg("SystemAccess", "abortTransaction", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		in.s.Abort()
		return r, nil
	})
	in.reg("SystemAccess", "time", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.MustInt(int64(in.s.DB().TxnManager().LastCommitted())), nil
	})
	in.reg("SystemAccess", "safeTime", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.MustInt(int64(in.s.SafeTime())), nil
	})
	in.reg("SystemAccess", "timeDial:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() || a[0].Int() < 0 {
			return oop.Invalid, fmt.Errorf("opal: timeDial: needs a non-negative integer")
		}
		if err := in.s.SetTimeDial(oop.Time(a[0].Int())); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	in.reg("SystemAccess", "timeDialNow", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if err := in.s.SetTimeDial(oop.TimeNow); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	in.reg("SystemAccess", "timeDial", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		d := in.s.TimeDial()
		if d.IsNow() {
			return oop.Nil, nil
		}
		return oop.MustInt(int64(d)), nil
	})
	in.reg("SystemAccess", "user", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.s.NewString(in.s.User())
	})
	in.reg("SystemAccess", "query:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		src, err := in.mustString(a[0], fmt.Errorf("opal: query: needs a string"))
		if err != nil {
			return oop.Invalid, err
		}
		return in.runQuery(src, false)
	})
	in.reg("SystemAccess", "queryNaive:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		src, err := in.mustString(a[0], fmt.Errorf("opal: queryNaive: needs a string"))
		if err != nil {
			return oop.Invalid, err
		}
		return in.runQuery(src, true)
	})
	in.reg("SystemAccess", "explain:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		src, err := in.mustString(a[0], fmt.Errorf("opal: explain: needs a string"))
		if err != nil {
			return oop.Invalid, err
		}
		plan, err := in.explainQuery(src)
		if err != nil {
			return oop.Invalid, err
		}
		return in.s.NewString(plan)
	})
	in.reg("SystemAccess", "createUser:password:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name, ok1, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		pw, ok2, err := in.stringValue(a[1])
		if err != nil {
			return oop.Invalid, err
		}
		if !ok1 || !ok2 {
			return oop.Invalid, fmt.Errorf("opal: createUser:password: needs strings")
		}
		if err := in.s.CreateUser(name, pw); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})

	// System newShared: aClass — instantiate in the published (world-
	// writable) segment so other users can read and update the object.
	in.reg("SystemAccess", "newShared:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		is, err := in.isInstance(a[0], in.s.DB().Kernel().Class)
		if err != nil {
			return oop.Invalid, err
		}
		if !is {
			return oop.Invalid, fmt.Errorf("opal: newShared: needs a class")
		}
		o, err := in.s.NewSharedObject(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		// Indexed classes get their size slot like Class>>new.
		f, _, _ := in.s.Fetch(a[0], in.s.Symbol("format"))
		if f.IsSmallInt() && object.Format(f.Int()) == object.FormatIndexed {
			if err := in.setArraySize(o, 0); err != nil {
				return oop.Invalid, err
			}
		}
		return o, nil
	})
	// System grantTo: 'user' privilege: 'read'|'write'|'none' — on the
	// session user's home segment.
	in.reg("SystemAccess", "grantTo:privilege:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		user, ok1, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		priv, ok2, err := in.stringValue(a[1])
		if err != nil {
			return oop.Invalid, err
		}
		if !ok1 || !ok2 {
			return oop.Invalid, fmt.Errorf("opal: grantTo:privilege: needs strings")
		}
		var p auth.Privilege
		switch priv {
		case "none":
			p = auth.None
		case "read":
			p = auth.Read
		case "write":
			p = auth.Write
		default:
			return oop.Invalid, fmt.Errorf("opal: privilege must be none/read/write")
		}
		if err := in.s.Grant(in.s.HomeSegment(), user, p); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})

	// Transcript
	in.reg("TranscriptStream", "show:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		s, ok, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if ok {
			in.out.WriteString(s)
		} else {
			in.out.WriteString(in.safePrint(a[0]))
		}
		return r, nil
	})
	in.reg("TranscriptStream", "print:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		in.out.WriteString(in.safePrint(a[0]))
		return r, nil
	})
	in.reg("TranscriptStream", "cr", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		in.out.WriteByte('\n')
		return r, nil
	})
	in.reg("TranscriptStream", "tab", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		in.out.WriteByte('\t')
		return r, nil
	})
}
