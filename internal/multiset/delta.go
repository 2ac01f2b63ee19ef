package multiset

import "mra/internal/tuple"

// Delta is one relation's change as a pair of Add/Remove multisets: applied
// to a base instance it removes every occurrence of Remove (monus) and then
// adds every occurrence of Add.  A *net* delta of a base — what Diff
// produces and Then maintains — additionally has disjoint sides and
// Remove ⊑ base, so base ∸ Remove ⊎ Add is exact and the two sides name
// precisely the tuple keys whose multiplicity moved.  Deltas over disjoint
// keys commute, which is what key-granular commit validation builds on.
// Either side may be nil.
type Delta struct {
	// Add holds the occurrences added beyond the base.
	Add *Relation
	// Remove holds the occurrences of the base removed.
	Remove *Relation
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return (d.Add == nil || d.Add.tab.total == 0) && (d.Remove == nil || d.Remove.tab.total == 0)
}

// Then folds step into d, the net delta of base, so that afterwards d is the
// net delta of base to ((base ∸ d.Remove ⊎ d.Add) ∸ step.Remove) ⊎ step.Add —
// exactly what Diff(base, that relation) would return.  Step's removals clamp
// at the current multiplicity (monus), cancel pending additions first and
// only then extend the pending removal; step's additions cancel pending
// removals first.  The fold costs O(|step|) hash probes, never a pass over
// base.  d's sides are created on first use and mutated in place; step is
// not modified, and its Add side may be adopted copy-on-write.
func (d *Delta) Then(base *Relation, step Delta) {
	if step.Empty() {
		return
	}
	if d.Empty() && (step.Remove == nil || step.Remove.tab.total == 0) {
		// A pure insertion onto an unchanged base: adopt it in O(1).
		d.Add = step.Add.WithSchema(base.schema)
		return
	}
	if d.Add == nil {
		d.Add = New(base.schema)
	}
	if d.Remove == nil {
		d.Remove = New(base.schema)
	}
	d.Add.materialize()
	d.Remove.materialize()
	add, rem := d.Add.tab, d.Remove.tab
	if step.Remove != nil {
		entries := step.Remove.tab.entries
		for i := range entries {
			e := &entries[i]
			if e.count == 0 {
				continue
			}
			n := e.count
			if cur := base.tab.count(e.hash, e.tup) - rem.count(e.hash, e.tup) + add.count(e.hash, e.tup); n > cur {
				n = cur
			}
			if n -= add.take(e.hash, e.tup, n); n > 0 {
				rem.add(e.hash, e.tup, n)
			}
		}
	}
	if step.Add != nil {
		entries := step.Add.tab.entries
		for i := range entries {
			e := &entries[i]
			if e.count == 0 {
				continue
			}
			if n := e.count - rem.take(e.hash, e.tup, e.count); n > 0 {
				add.add(e.hash, e.tup, n)
			}
		}
	}
}

// Diff computes the net delta that turns base into next: add holds every
// occurrence present in next beyond its multiplicity in base, remove every
// occurrence of base missing from next, so that
// next = (base ∸ remove) ⊎ add.  The two multisets are disjoint by
// construction (a tuple's multiplicity moves in one direction only), and both
// are empty when the relations are equal — in particular when they share one
// copy-on-write table, which Diff detects in O(1).  Cached entry hashes are
// reused throughout; no tuple is ever re-hashed.  Diff walks both relations;
// the write path composes statement deltas with Then instead and needs it
// only for wholesale replacements.
func Diff(base, next *Relation) (add, remove *Relation) {
	add = New(next.schema)
	remove = New(base.schema)
	if base.tab == next.tab {
		return add, remove
	}
	nextEntries := next.tab.entries
	for i := range nextEntries {
		e := &nextEntries[i]
		if e.count == 0 {
			continue
		}
		if old := base.tab.count(e.hash, e.tup); e.count > old {
			add.tab.add(e.hash, e.tup, e.count-old)
		}
	}
	baseEntries := base.tab.entries
	for i := range baseEntries {
		e := &baseEntries[i]
		if e.count == 0 {
			continue
		}
		if cur := next.tab.count(e.hash, e.tup); e.count > cur {
			remove.tab.add(e.hash, e.tup, e.count-cur)
		}
	}
	return add, remove
}

// ApplyDelta applies a delta in place: every occurrence of remove is removed
// first (monus — multiplicities clamp at zero), then every occurrence of add
// is added.  Applied to the relation a net delta was taken from, it
// reproduces the target exactly; applied to a relation other writers
// advanced on disjoint keys, it merges — which is what makes delta write sets
// over disjoint keys commute under the storage engine's key-granular commit
// validation.  Either argument may be nil.
func (r *Relation) ApplyDelta(add, remove *Relation) {
	if (add == nil || add.tab.total == 0) && (remove == nil || remove.tab.total == 0) {
		return
	}
	r.materialize()
	tab := r.tab
	if remove != nil {
		entries := remove.tab.entries
		for i := range entries {
			if e := &entries[i]; e.count > 0 {
				tab.take(e.hash, e.tup, e.count)
			}
		}
	}
	if add != nil {
		entries := add.tab.entries
		for i := range entries {
			if e := &entries[i]; e.count > 0 {
				tab.add(e.hash, e.tup, e.count)
			}
		}
	}
}

// EachHash calls fn once per distinct tuple with its cached hash and
// multiplicity — the key-granular view of the relation the transaction
// layer's write-set validation iterates.  If fn returns false, iteration
// stops.  fn must not mutate r.
func (r *Relation) EachHash(fn func(t tuple.Tuple, hash uint64, count uint64) bool) {
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 {
			continue
		}
		if !fn(entries[i].tup, entries[i].hash, entries[i].count) {
			return
		}
	}
}

// ContainsHash reports whether the relation holds any live tuple whose cached
// hash equals h.  It is the O(1) membership probe key-granular read
// validation uses to intersect a recent-writer key log with the key set a
// snapshot reader observed.
func (r *Relation) ContainsHash(h uint64) bool {
	head, ok := r.tab.index[h]
	if !ok {
		return false
	}
	for i := head; i != chainEnd; i = r.tab.entries[i].next {
		if r.tab.entries[i].count > 0 {
			return true
		}
	}
	return false
}
