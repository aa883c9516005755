// Package object implements the GemStone Data Model object representation
// (paper §5.4, §6): an object is a labeled set of elements, and each element
// binds a name to a *history* — a table of (transaction time, value)
// associations rather than a single value. Byte objects (strings, symbols)
// carry versioned byte payloads instead of elements.
//
// This is the in-memory form manipulated by the Object Manager; the store
// package serializes it onto tracks.
package object

import (
	"fmt"
	"sort"

	"repro/internal/oop"
)

// Format describes the storage shape of instances of a class, paralleling
// the Smalltalk-80 class formats.
type Format uint8

const (
	// FormatNamed objects hold elements with symbol names (instance
	// variables, possibly optional or added after instantiation).
	FormatNamed Format = iota
	// FormatIndexed objects additionally hold elements with SmallInteger
	// names 1..n (arrays, ordered collections).
	FormatIndexed
	// FormatBytes objects hold an uninterpreted byte payload (strings,
	// symbols, large binary documents). Byte payloads are versioned as a
	// whole: each mutation appends a new ByteVersion.
	FormatBytes
)

func (f Format) String() string {
	switch f {
	case FormatNamed:
		return "named"
	case FormatIndexed:
		return "indexed"
	case FormatBytes:
		return "bytes"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// SegmentID names an authorization segment (paper §6: "authorization" is an
// Object Manager duty). Every object belongs to exactly one segment.
type SegmentID uint32

// Association binds a transaction time to the value an element acquired at
// that time (paper §6: "associations are pairs of transaction times and
// object pointers"). The binding lasts until a later association supersedes
// it.
type Association struct {
	T     oop.Time
	Value oop.OOP
}

// Element is a named history of values within an object. Hist is kept in
// strictly ascending time order.
type Element struct {
	Name oop.OOP // a Symbol OOP for named elements, a SmallInteger for indexed
	Hist []Association
}

// At returns the value the element had in the database state at time t: the
// value of the association with the greatest time <= t. The second result is
// false if the element had no value yet at t.
func (e *Element) At(t oop.Time) (oop.OOP, bool) {
	h := e.Hist
	// Binary search for the first association with T > t.
	i := sort.Search(len(h), func(i int) bool { return h[i].T > t })
	if i == 0 {
		return oop.Invalid, false
	}
	return h[i-1].Value, true
}

// Current returns the element's newest value. The second result is false for
// an element with empty history.
func (e *Element) Current() (oop.OOP, bool) {
	if len(e.Hist) == 0 {
		return oop.Invalid, false
	}
	return e.Hist[len(e.Hist)-1].Value, true
}

// Record appends a new association at time t. Appending at a time not later
// than the newest existing association replaces the newest value when the
// times are equal (several writes in one transaction collapse), and returns
// an error when t would go backwards.
func (e *Element) Record(t oop.Time, v oop.OOP) error {
	if n := len(e.Hist); n > 0 {
		last := e.Hist[n-1].T
		if t < last {
			return fmt.Errorf("object: time %v precedes element history head %v", t, last)
		}
		if t == last {
			e.Hist[n-1].Value = v
			return nil
		}
	}
	e.Hist = append(e.Hist, Association{T: t, Value: v})
	return nil
}

// ByteVersion is one historical value of a byte object's payload.
type ByteVersion struct {
	T     oop.Time
	Bytes []byte
}

// Object is the unit of identity in the database: a labeled set of element
// histories (or a versioned byte payload) plus a class reference and an
// authorization segment. Objects are mutated only through the methods here
// so the name index mirrors elems at all times: reading an object never
// writes to it, which is what lets every session share one committed copy.
type Object struct {
	OOP    oop.OOP
	Class  oop.OOP
	Seg    SegmentID
	Format Format

	elems []Element
	index map[oop.OOP]int // element name -> position in elems

	byteHist []ByteVersion // only for FormatBytes
}

// New creates an empty object of the given identity, class and format.
func New(o oop.OOP, class oop.OOP, seg SegmentID, f Format) *Object {
	return &Object{OOP: o, Class: class, Seg: seg, Format: f}
}

// Len returns the number of elements (for byte objects, zero; use ByteLen).
func (ob *Object) Len() int { return len(ob.elems) }

// Elements exposes the element slice for iteration. Callers must not modify
// histories directly; treat the result as read-only.
func (ob *Object) Elements() []Element { return ob.elems }

// Element returns the element with the given name, or nil if absent.
func (ob *Object) Element(name oop.OOP) *Element {
	i, ok := ob.index[name]
	if !ok {
		return nil
	}
	return &ob.elems[i]
}

// EnsureElement returns the element with the given name, creating an empty
// one if absent. No two elements in an object may share a name (paper §5.1),
// which this upholds by construction.
func (ob *Object) EnsureElement(name oop.OOP) *Element {
	if e := ob.Element(name); e != nil {
		return e
	}
	if ob.index == nil {
		ob.index = make(map[oop.OOP]int)
	}
	ob.index[name] = len(ob.elems)
	ob.elems = append(ob.elems, Element{Name: name})
	return &ob.elems[len(ob.elems)-1]
}

// Fetch returns the current value of the named element. Missing elements and
// elements with no value yet read as (Nil, false).
func (ob *Object) Fetch(name oop.OOP) (oop.OOP, bool) {
	e := ob.Element(name)
	if e == nil {
		return oop.Nil, false
	}
	v, ok := e.Current()
	if !ok {
		return oop.Nil, false
	}
	return v, true
}

// FetchAt returns the value of the named element in the state at time t.
func (ob *Object) FetchAt(name oop.OOP, t oop.Time) (oop.OOP, bool) {
	if t.IsNow() {
		return ob.Fetch(name)
	}
	e := ob.Element(name)
	if e == nil {
		return oop.Nil, false
	}
	v, ok := e.At(t)
	if !ok {
		return oop.Nil, false
	}
	return v, true
}

// Store records v as the value of the named element at time t, creating the
// element if needed.
func (ob *Object) Store(name oop.OOP, t oop.Time, v oop.OOP) error {
	if ob.Format == FormatBytes {
		return fmt.Errorf("object: byte object %v has no named elements", ob.OOP)
	}
	return ob.EnsureElement(name).Record(t, v)
}

// Remove records nil as the element's value — the paper's replacement for
// deletion ("the fact that Ayn left ... with time 8, whose value is the
// object nil"). History remains accessible.
func (ob *Object) Remove(name oop.OOP, t oop.Time) error {
	return ob.Store(name, t, oop.Nil)
}

// NamesAt returns the element names that have a non-nil value in the state
// at time t, in insertion order.
func (ob *Object) NamesAt(t oop.Time) []oop.OOP {
	var names []oop.OOP
	for i := range ob.elems {
		if v, ok := ob.elems[i].At(timeOrNow(t)); ok && v != oop.Nil {
			names = append(names, ob.elems[i].Name)
		}
	}
	return names
}

func timeOrNow(t oop.Time) oop.Time {
	if t.IsNow() {
		return oop.Time(^uint64(0) - 1) // any committed time compares below
	}
	return t
}

// --- Byte payloads ---

// SetBytes records a new whole-payload version at time t.
func (ob *Object) SetBytes(t oop.Time, b []byte) error {
	if ob.Format != FormatBytes {
		return fmt.Errorf("object: %v is not a byte object", ob.OOP)
	}
	if n := len(ob.byteHist); n > 0 {
		last := ob.byteHist[n-1].T
		if t < last {
			return fmt.Errorf("object: time %v precedes byte history head %v", t, last)
		}
		if t == last {
			ob.byteHist[n-1].Bytes = b
			return nil
		}
	}
	ob.byteHist = append(ob.byteHist, ByteVersion{T: t, Bytes: b})
	return nil
}

// Bytes returns the current byte payload (nil if none).
func (ob *Object) Bytes() []byte {
	if n := len(ob.byteHist); n > 0 {
		return ob.byteHist[n-1].Bytes
	}
	return nil
}

// BytesAt returns the payload in the state at time t.
func (ob *Object) BytesAt(t oop.Time) ([]byte, bool) {
	if t.IsNow() {
		b := ob.Bytes()
		return b, b != nil
	}
	h := ob.byteHist
	i := sort.Search(len(h), func(i int) bool { return h[i].T > t })
	if i == 0 {
		return nil, false
	}
	return h[i-1].Bytes, true
}

// ByteLen returns the current payload length.
func (ob *Object) ByteLen() int { return len(ob.Bytes()) }

// ByteVersions exposes the byte history (read-only).
func (ob *Object) ByteVersions() []ByteVersion { return ob.byteHist }

// --- Copying and equality ---

// Clone makes a deep copy of the object's structure (histories are copied;
// referenced objects are shared by OOP, which is exactly entity identity).
// Workspaces use Clone to give sessions a private copy-on-write view.
func (ob *Object) Clone() *Object {
	c := &Object{OOP: ob.OOP, Class: ob.Class, Seg: ob.Seg, Format: ob.Format}
	if len(ob.elems) > 0 {
		c.elems = make([]Element, len(ob.elems))
		c.index = make(map[oop.OOP]int, len(ob.elems))
		for i := range ob.elems {
			c.elems[i] = Element{
				Name: ob.elems[i].Name,
				Hist: append([]Association(nil), ob.elems[i].Hist...),
			}
			c.index[ob.elems[i].Name] = i
		}
	}
	if len(ob.byteHist) > 0 {
		c.byteHist = make([]ByteVersion, len(ob.byteHist))
		for i, v := range ob.byteHist {
			c.byteHist[i] = ByteVersion{T: v.T, Bytes: append([]byte(nil), v.Bytes...)}
		}
	}
	return c
}

// RestampPending rewrites every association carrying the pending-time
// sentinel to the committed transaction time. Workspaces record uncommitted
// writes at PendingTime; the Linker restamps them when the Transaction
// Manager assigns the real commit time.
func (ob *Object) RestampPending(commit oop.Time) {
	for i := range ob.elems {
		h := ob.elems[i].Hist
		for j := range h {
			if h[j].T == PendingTime {
				h[j].T = commit
			}
		}
	}
	for i := range ob.byteHist {
		if ob.byteHist[i].T == PendingTime {
			ob.byteHist[i].T = commit
		}
	}
}

// PendingTime is the provisional timestamp used for writes inside an
// uncommitted transaction. It compares above every committed time so the
// writing session sees its own updates as current, and it is rewritten to
// the assigned transaction time at commit.
const PendingTime = oop.Time(^uint64(0) - 1)

// EquivalentAt reports structural equivalence of two objects in the state at
// time t, resolving references one level deep by OOP equality. Full deep
// structural equivalence is a model-level operation provided by the core
// package (it needs the object graph); this shallow form is what the
// representation itself can decide.
func (ob *Object) EquivalentAt(other *Object, t oop.Time) bool {
	if ob.Format != other.Format || ob.Class != other.Class {
		return false
	}
	if ob.Format == FormatBytes {
		a, aok := ob.BytesAt(t)
		b, bok := other.BytesAt(t)
		if aok != bok {
			return false
		}
		return string(a) == string(b)
	}
	an, bn := ob.NamesAt(t), other.NamesAt(t)
	if len(an) != len(bn) {
		return false
	}
	for _, name := range an {
		av, _ := ob.FetchAt(name, t)
		bv, ok := other.FetchAt(name, t)
		if !ok || av != bv {
			return false
		}
	}
	return true
}

// HistoryLen returns the total number of associations stored in the object,
// a measure of how much the object has "grown with time" (paper §6).
func (ob *Object) HistoryLen() int {
	n := len(ob.byteHist)
	for i := range ob.elems {
		n += len(ob.elems[i].Hist)
	}
	return n
}
