package directory

import (
	"repro/internal/oop"
)

// Entry records that a set member was indexed under some key over a
// transaction-time interval [From, To). To == TimeNow means still current.
type Entry struct {
	Name   oop.OOP  // the element name binding the member into the set
	Member oop.OOP  // the member object (the element's value)
	From   oop.Time // first state in which this entry holds
	To     oop.Time // first state in which it no longer holds (TimeNow = open)
}

// aliveAt reports whether the entry holds in the state at t.
func (e Entry) aliveAt(t oop.Time) bool {
	return e.From <= t && (e.To.IsNow() || t < e.To)
}

// item is one distinct key with its entry postings.
type item struct {
	key     Key
	entries []Entry
}

const btreeOrder = 64 // max items per node

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// find returns the position of key in n.items and whether it was found.
func (n *node) find(k Key) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		switch Compare(n.items[mid].key, k) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Index is an in-memory B-tree from keys to history-interval entries.
// It supports insertion and interval closing but, by design, no deletion.
type Index struct {
	root  *node
	nKeys int
}

// NewIndex creates an empty index.
func NewIndex() *Index { return &Index{root: &node{}} }

// Keys returns the number of distinct keys.
func (ix *Index) Keys() int { return ix.nKeys }

// Insert adds an entry under k.
func (ix *Index) Insert(k Key, e Entry) {
	if len(ix.root.items) >= btreeOrder {
		old := ix.root
		ix.root = &node{children: []*node{old}}
		ix.splitChild(ix.root, 0)
	}
	ix.insertNonFull(ix.root, k, e)
}

func (ix *Index) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.items) / 2
	up := child.items[mid]
	right := &node{items: append([]item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]
	parent.items = append(parent.items, item{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = up
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (ix *Index) insertNonFull(n *node, k Key, e Entry) {
	for {
		i, found := n.find(k)
		if found {
			n.items[i].entries = append(n.items[i].entries, e)
			return
		}
		if n.leaf() {
			n.items = append(n.items, item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item{key: k, entries: []Entry{e}}
			ix.nKeys++
			return
		}
		if len(n.children[i].items) >= btreeOrder {
			ix.splitChild(n, i)
			switch Compare(n.items[i].key, k) {
			case -1:
				i++
			case 0:
				n.items[i].entries = append(n.items[i].entries, e)
				return
			}
		}
		n = n.children[i]
	}
}

// Close marks the open entry for (k, name, member) as superseded at time at.
// It returns false if no open entry exists under that key.
func (ix *Index) Close(k Key, name, member oop.OOP, at oop.Time) bool {
	n := ix.root
	for {
		i, found := n.find(k)
		if found {
			es := n.items[i].entries
			for j := range es {
				if es[j].Name == name && es[j].Member == member && es[j].To.IsNow() {
					es[j].To = at
					return true
				}
			}
			return false
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// Lookup returns the entries under k alive in the state at t.
func (ix *Index) Lookup(k Key, t oop.Time) []Entry {
	var out []Entry
	_ = ix.LookupFunc(k, t, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	return out
}

// LookupFunc streams the entries under k alive in the state at t to fn
// without materializing a slice. Iteration stops at the first error, which
// is returned.
func (ix *Index) LookupFunc(k Key, t oop.Time, fn func(Entry) error) error {
	n := ix.root
	for {
		i, found := n.find(k)
		if found {
			for _, e := range n.items[i].entries {
				if e.aliveAt(t) {
					if err := fn(e); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Range returns entries with lo <= key <= hi (bounds included per loInc /
// hiInc) alive at t, in ascending key order. A nil bound is unbounded.
func (ix *Index) Range(lo, hi *Key, loInc, hiInc bool, t oop.Time) []Entry {
	var out []Entry
	_ = ix.RangeFunc(lo, hi, loInc, hiInc, t, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	return out
}

// RangeFunc streams entries with keys in the given bounds alive at t to fn
// in ascending key order, without materializing a slice. Iteration stops at
// the first error, which is returned.
func (ix *Index) RangeFunc(lo, hi *Key, loInc, hiInc bool, t oop.Time, fn func(Entry) error) error {
	return ix.walk(ix.root, lo, hi, loInc, hiInc, t, fn)
}

func (ix *Index) walk(n *node, lo, hi *Key, loInc, hiInc bool, t oop.Time, fn func(Entry) error) error {
	for i := 0; i <= len(n.items); i++ {
		if !n.leaf() {
			// Child i holds keys strictly between items[i-1].key and
			// items[i].key; skip it only when that whole gap is outside the
			// bounds.
			skip := false
			if lo != nil && i < len(n.items) && Compare(n.items[i].key, *lo) <= 0 {
				skip = true // every key in the child is below lo
			}
			if hi != nil && i > 0 && Compare(n.items[i-1].key, *hi) >= 0 {
				skip = true // every key in the child is above hi
			}
			if !skip {
				if err := ix.walk(n.children[i], lo, hi, loInc, hiInc, t, fn); err != nil {
					return err
				}
			}
		}
		if i < len(n.items) {
			k := n.items[i].key
			if lo != nil {
				if c := Compare(k, *lo); c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				if c := Compare(k, *hi); c > 0 || (c == 0 && !hiInc) {
					continue
				}
			}
			for _, e := range n.items[i].entries {
				if e.aliveAt(t) {
					if err := fn(e); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
