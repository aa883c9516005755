// Package relational is the comparison baseline: a minimal in-memory
// relational engine implementing the encodings the paper says the
// relational model forces on structured data (§5.2) — flattening set-valued
// attributes into repeated tuples, logical pointers through keys, and the
// extra joins needed to reassemble an entity. Experiments use it to measure
// the costs the paper attributes to those encodings.
package relational

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a relational atomic value: int64, float64, string, bool or nil.
// The relational model has no entity identity — only values (§2.D).
type Value any

// Tuple is one row, positionally matching the relation's attributes.
type Tuple []Value

// Relation is a named set of homogeneous tuples.
type Relation struct {
	Name  string
	Attrs []string
	rows  []Tuple
	index map[string]map[Value][]int // attr -> value -> row positions
}

// New creates an empty relation.
func New(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: attrs}
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Rows exposes the tuples (read-only by convention).
func (r *Relation) Rows() []Tuple { return r.rows }

func (r *Relation) attrIndex(name string) (int, error) {
	for i, a := range r.Attrs {
		if a == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("relational: %s has no attribute %q", r.Name, name)
}

// Insert appends a tuple.
func (r *Relation) Insert(vals ...Value) error {
	if len(vals) != len(r.Attrs) {
		return fmt.Errorf("relational: %s expects %d values, got %d", r.Name, len(r.Attrs), len(vals))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	if r.index != nil {
		for attr, ix := range r.index {
			i, _ := r.attrIndex(attr)
			ix[t[i]] = append(ix[t[i]], len(r.rows))
		}
	}
	r.rows = append(r.rows, t)
	return nil
}

// Get returns the value of attr in tuple t (helper for predicates).
func (r *Relation) Get(t Tuple, attr string) (Value, error) {
	i, err := r.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	return t[i], nil
}

// CreateIndex builds a hash index on attr (kept up to date by Insert and
// invalidated by Update/Delete for simplicity).
func (r *Relation) CreateIndex(attr string) error {
	i, err := r.attrIndex(attr)
	if err != nil {
		return err
	}
	if r.index == nil {
		r.index = map[string]map[Value][]int{}
	}
	ix := make(map[Value][]int, len(r.rows))
	for pos, t := range r.rows {
		ix[t[i]] = append(ix[t[i]], pos)
	}
	r.index[attr] = ix
	return nil
}

// Select returns the tuples satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.Name+"'", r.Attrs...)
	for _, t := range r.rows {
		if pred(t) {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// SelectEq selects tuples with attr = v, using the index when available.
func (r *Relation) SelectEq(attr string, v Value) (*Relation, error) {
	i, err := r.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	out := New(r.Name+"'", r.Attrs...)
	if ix, ok := r.index[attr]; ok {
		for _, pos := range ix[v] {
			out.rows = append(out.rows, r.rows[pos])
		}
		return out, nil
	}
	for _, t := range r.rows {
		if t[i] == v {
			out.rows = append(out.rows, t)
		}
	}
	return out, nil
}

// Project returns the relation restricted to the named attributes, with
// duplicate elimination (relations are sets).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for j, a := range attrs {
		i, err := r.attrIndex(a)
		if err != nil {
			return nil, err
		}
		idx[j] = i
	}
	out := New(r.Name+"'", attrs...)
	seen := map[string]bool{}
	for _, t := range r.rows {
		nt := make(Tuple, len(idx))
		for j, i := range idx {
			nt[j] = t[i]
		}
		key := fmt.Sprintf("%v", nt)
		if !seen[key] {
			seen[key] = true
			out.rows = append(out.rows, nt)
		}
	}
	return out, nil
}

// Join performs an equi-join on r.attrL = other.attrR (hash join), keeping
// all attributes of both (the right join attribute is dropped).
func (r *Relation) Join(other *Relation, attrL, attrR string) (*Relation, error) {
	li, err := r.attrIndex(attrL)
	if err != nil {
		return nil, err
	}
	ri, err := other.attrIndex(attrR)
	if err != nil {
		return nil, err
	}
	attrs := append([]string{}, r.Attrs...)
	for j, a := range other.Attrs {
		if j == ri {
			continue
		}
		name := a
		for _, existing := range attrs {
			if existing == a {
				name = other.Name + "." + a
				break
			}
		}
		attrs = append(attrs, name)
	}
	out := New(r.Name+"⋈"+other.Name, attrs...)
	// Build on the smaller side.
	build := make(map[Value][]Tuple, other.Len())
	for _, t := range other.rows {
		build[t[ri]] = append(build[t[ri]], t)
	}
	for _, lt := range r.rows {
		for _, rt := range build[lt[li]] {
			nt := make(Tuple, 0, len(attrs))
			nt = append(nt, lt...)
			for j, v := range rt {
				if j != ri {
					nt = append(nt, v)
				}
			}
			out.rows = append(out.rows, nt)
		}
	}
	return out, nil
}

// UpdateWhere sets setAttr = newV on every tuple with whereAttr = whereV and
// returns the count. Indexes on the updated attribute are invalidated.
func (r *Relation) UpdateWhere(whereAttr string, whereV Value, setAttr string, newV Value) (int, error) {
	wi, err := r.attrIndex(whereAttr)
	if err != nil {
		return 0, err
	}
	si, err := r.attrIndex(setAttr)
	if err != nil {
		return 0, err
	}
	delete(r.index, setAttr)
	n := 0
	for _, t := range r.rows {
		if t[wi] == whereV {
			t[si] = newV
			n++
		}
	}
	return n, nil
}

// Delete removes tuples matching pred, returning the count. Indexes are
// invalidated.
func (r *Relation) Delete(pred func(Tuple) bool) int {
	r.index = nil
	kept := r.rows[:0]
	n := 0
	for _, t := range r.rows {
		if pred(t) {
			n++
			continue
		}
		kept = append(kept, t)
	}
	r.rows = kept
	return n
}

// String renders the relation as the paper's tables.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Attrs, " | "))
	b.WriteByte('\n')
	rows := make([]string, 0, len(r.rows))
	for _, t := range r.rows {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprint(v)
		}
		rows = append(rows, strings.Join(parts, " | "))
	}
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n"))
	return b.String()
}

// --- The paper's §5.2 encodings ---

// FlattenSetValued encodes an entity with a set-valued attribute as the
// paper's example flattens {Name: {First: 'Robert', Last: 'Peters'},
// Children: {'Olivia','Dale','Paul'}} into a three-tuple relation: one
// tuple per set member, repeating the scalar attributes.
func FlattenSetValued(rel *Relation, scalars []Value, members []Value) error {
	for _, m := range members {
		vals := append(append([]Value{}, scalars...), m)
		if err := rel.Insert(vals...); err != nil {
			return err
		}
	}
	return nil
}

// CollectSetValued is the inverse: gather the member column for the rows
// whose scalar columns equal scalars — the extra work to reassemble the
// entity ("requiring extra joins to bring the description of an employee
// together").
func CollectSetValued(rel *Relation, scalars []Value) []Value {
	var out []Value
	for _, t := range rel.rows {
		match := true
		for i, s := range scalars {
			if t[i] != s {
				match = false
				break
			}
		}
		if match {
			out = append(out, t[len(t)-1])
		}
	}
	return out
}
