package multiset

import (
	"slices"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// Overlay is a read-only view of base ∸ Remove ⊎ Add for a net Delta of base
// (see Delta.Then), read without materialising it: iteration walks base's
// entry arena with the removed occurrences subtracted, then Add's arena.  A
// tuple whose multiplicity the delta raised is delivered in two chunks, one
// per arena — sound under bag semantics, where the chunks of a stream sum.
// With an empty delta every method defers straight to base.
//
// Building an overlay costs O(|delta|) hash probes and a sort of the base
// positions Remove lowers; the view shares base and the delta's relations,
// which must not change while it is in use.  An Overlay is safe for
// concurrent readers.
type Overlay struct {
	base        *Relation
	add, remove *Relation
	// cuts lists, in ascending arena position, the base entries whose
	// multiplicity Remove lowers, with their remaining count.
	cuts  []cut
	total uint64
	live  int
}

// cut is one base entry's multiplicity after the overlay's removals.
type cut struct {
	pos   int
	count uint64
}

// NewOverlay returns the view of base through the net delta d.  Occurrences
// of d.Remove missing from base are ignored (monus).
func NewOverlay(base *Relation, d Delta) Overlay {
	o := Overlay{base: base, total: base.tab.total, live: base.tab.live}
	if d.Remove != nil && d.Remove.tab.total > 0 {
		o.remove = d.Remove
		entries := d.Remove.tab.entries
		for i := range entries {
			e := &entries[i]
			if e.count == 0 {
				continue
			}
			j := base.tab.find(e.hash, e.tup)
			if j == chainEnd || base.tab.entries[j].count == 0 {
				continue
			}
			c := base.tab.entries[j].count
			n := min(e.count, c)
			o.cuts = append(o.cuts, cut{pos: int(j), count: c - n})
			o.total -= n
			if n == c {
				o.live--
			}
		}
		slices.SortFunc(o.cuts, func(a, b cut) int { return a.pos - b.pos })
	}
	if d.Add != nil && d.Add.tab.total > 0 {
		o.add = d.Add
		o.total += d.Add.tab.total
		entries := d.Add.tab.entries
		for i := range entries {
			// A tuple all of whose occurrences come from Add is new.
			if e := &entries[i]; e.count > 0 && o.count(e.hash, e.tup) == e.count {
				o.live++
			}
		}
	}
	return o
}

// Plain returns the base relation and true when the delta changes nothing,
// so the view can be read as that relation.
func (o Overlay) Plain() (*Relation, bool) { return o.base, o.plain() }

// plain reports whether the overlay changes nothing, so base can be read as is.
func (o Overlay) plain() bool { return o.add == nil && o.cuts == nil }

// Schema returns the relation's schema.
func (o Overlay) Schema() schema.Relation { return o.base.schema }

// Cardinality returns |base ∸ Remove ⊎ Add| counting duplicates.
func (o Overlay) Cardinality() uint64 { return o.total }

// DistinctCount returns the number of distinct tuples of the view.
func (o Overlay) DistinctCount() int { return o.live }

// count returns the view's multiplicity of tup (whose hash is h).
func (o Overlay) count(h uint64, tup tuple.Tuple) uint64 {
	n := o.base.tab.count(h, tup)
	if o.remove != nil {
		n -= min(n, o.remove.tab.count(h, tup))
	}
	if o.add != nil {
		n += o.add.tab.count(h, tup)
	}
	return n
}

// Intersect returns view ∩ e, carrying the view's schema: every tuple of e
// with the smaller of its two multiplicities.  It probes the view only for
// e's tuples — the R ∩ E of Definition 4.1's update without a pass over R.
func (o Overlay) Intersect(e *Relation) *Relation {
	out := NewWithCapacity(o.base.schema, e.tab.live)
	entries := e.tab.entries
	for i := range entries {
		x := &entries[i]
		if x.count == 0 {
			continue
		}
		if n := min(x.count, o.count(x.hash, x.tup)); n > 0 {
			out.tab.add(x.hash, x.tup, n)
		}
	}
	return out
}

// Relation materialises the view as a relation the caller owns: an O(1)
// copy-on-write clone of base when the delta is empty, one private copy of
// base with the delta applied otherwise.
func (o Overlay) Relation() *Relation {
	r := o.base.Clone()
	r.ApplyDelta(o.add, o.remove)
	return r
}

// EntrySpan returns the view's index domain for EachEntryRange: base's arena
// followed by Add's.
func (o Overlay) EntrySpan() int {
	n := len(o.base.tab.entries)
	if o.add != nil {
		n += len(o.add.tab.entries)
	}
	return n
}

// each calls fn for every live entry of the view in index positions
// [lo, hi) of the EntrySpan domain, with its multiplicity in the view.  It
// stops early, returning false, when fn does.
func (o Overlay) each(lo, hi int, fn func(e *entry, n uint64) bool) bool {
	entries := o.base.tab.entries
	span := len(entries)
	lo = max(lo, 0)
	k, _ := slices.BinarySearchFunc(o.cuts, lo, func(c cut, pos int) int { return c.pos - pos })
	for i := lo; i < min(hi, span); i++ {
		n := entries[i].count
		if k < len(o.cuts) && o.cuts[k].pos == i {
			n = o.cuts[k].count
			k++
		}
		if n > 0 && !fn(&entries[i], n) {
			return false
		}
	}
	if o.add == nil {
		return true
	}
	adds := o.add.tab.entries
	for i := max(lo-span, 0); i < min(hi-span, len(adds)); i++ {
		if n := adds[i].count; n > 0 && !fn(&adds[i], n) {
			return false
		}
	}
	return true
}

// Each calls fn once per chunk of the view: once per distinct tuple, or
// twice for a tuple whose multiplicity the delta raised.  If fn returns
// false, iteration stops.
func (o Overlay) Each(fn func(t tuple.Tuple, count uint64) bool) {
	if o.plain() {
		o.base.Each(fn)
		return
	}
	o.each(0, o.EntrySpan(), func(e *entry, n uint64) bool { return fn(e.tup, n) })
}

// EachInPartition is Relation.EachInPartition over the view's chunks: both
// chunks of a tuple fall into the partition of its hash.
func (o Overlay) EachInPartition(part, parts int, fn func(t tuple.Tuple, count uint64) bool) {
	if o.plain() {
		o.base.EachInPartition(part, parts, fn)
		return
	}
	p, m := uint64(part), uint64(max(parts, 1))
	o.each(0, o.EntrySpan(), func(e *entry, n uint64) bool {
		return e.hash%m != p || fn(e.tup, n)
	})
}

// EachEntryRange is Relation.EachEntryRange over the view's EntrySpan
// domain: the ranges of any partition of [0, EntrySpan()) deliver every
// occurrence of the view exactly once.
func (o Overlay) EachEntryRange(lo, hi int, fn func(t tuple.Tuple, count uint64) bool) {
	if o.plain() {
		o.base.EachEntryRange(lo, hi, fn)
		return
	}
	o.each(lo, hi, func(e *entry, n uint64) bool { return fn(e.tup, n) })
}

// EachBatch is Relation.EachBatch over the view's chunks.
func (o Overlay) EachBatch(size int, fn func(tuples []tuple.Tuple, counts []uint64) bool) {
	if o.plain() {
		o.base.EachBatch(size, fn)
		return
	}
	if size <= 0 {
		size = 256
	}
	tuples := make([]tuple.Tuple, 0, size)
	counts := make([]uint64, 0, size)
	if !o.each(0, o.EntrySpan(), func(e *entry, n uint64) bool {
		tuples = append(tuples, e.tup)
		counts = append(counts, n)
		if len(tuples) < size {
			return true
		}
		ok := fn(tuples, counts)
		tuples, counts = tuples[:0], counts[:0]
		return ok
	}) {
		return
	}
	if len(tuples) > 0 {
		fn(tuples, counts)
	}
}
