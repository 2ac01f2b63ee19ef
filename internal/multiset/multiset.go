// Package multiset implements multi-set relations: relation instances that
// map each tuple of the relation's domain to a natural-number multiplicity
// (Definition 2.2 of Grefen & de By, ICDE 1994).
//
// A Relation R of schema 𝓡 is a function R : dom(𝓡) → ℕ; the value R(x) is
// the multiplicity of x in R, and x ∈ R ⇔ R(x) > 0.  The representation never
// reports zero-multiplicity entries, so membership is structural.
//
// Physically a relation is a hash table indexed by tuple.Hash() with
// Tuple.Equal collision chains — no canonical string key is ever built.  The
// table is shared copy-on-write between Clone/WithSchema views: cloning is
// O(1) and the first mutation of a shared view copies the table privately.
package multiset

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// chainEnd terminates a collision chain.
const chainEnd = int32(-1)

// entry is one slot of the hash table: a representative tuple, its cached
// hash, its multiplicity, and the index of the next entry with the same hash.
// An entry whose count is zero is a tombstone left behind by Remove; it is
// skipped by iteration, revived in place if the tuple is re-added, and
// dropped when a copy-on-write clone compacts the table.
type entry struct {
	tup   tuple.Tuple
	hash  uint64
	count uint64
	next  int32
}

// table is the physical representation shared copy-on-write between relation
// views: a flat entry arena plus a hash index mapping tuple.Hash() to the
// head of that hash's collision chain.
type table struct {
	index   map[uint64]int32
	entries []entry
	live    int
	total   uint64
}

func newTable(capacity int) *table {
	return &table{index: make(map[uint64]int32, capacity), entries: make([]entry, 0, capacity)}
}

// clone returns a private copy of the table.  When tombstones make up at
// least half of the arena the copy is compacted instead: only live entries
// are re-inserted, so a relation that is repeatedly updated (every update
// tombstones one entry and appends another) keeps its arena, index and every
// later scan, morsel range and clone within twice its live size.  The copy
// is paid for anyway, so compaction costs nothing extra.
func (t *table) clone() *table {
	if dead := len(t.entries) - t.live; dead > 0 && dead >= t.live {
		c := newTable(t.live)
		for i := range t.entries {
			if e := &t.entries[i]; e.count > 0 {
				c.insert(e.hash, e.tup, e.count)
			}
		}
		return c
	}
	return &table{index: maps.Clone(t.index), entries: slices.Clone(t.entries), live: t.live, total: t.total}
}

// find returns the index of the entry holding tup (live or tombstoned), or
// chainEnd if the tuple has never been stored.
func (t *table) find(h uint64, tup tuple.Tuple) int32 {
	head, ok := t.index[h]
	if !ok {
		return chainEnd
	}
	for i := head; i != chainEnd; i = t.entries[i].next {
		if t.entries[i].tup.Equal(tup) {
			return i
		}
	}
	return chainEnd
}

// insert appends a new entry for a tuple known to be absent, prepending it to
// its hash's collision chain.
func (t *table) insert(h uint64, tup tuple.Tuple, n uint64) {
	head, ok := t.index[h]
	if !ok {
		head = chainEnd
	}
	t.index[h] = int32(len(t.entries))
	t.entries = append(t.entries, entry{tup: tup, hash: h, count: n, next: head})
	t.live++
	t.total += n
}

// count returns the multiplicity of tup (whose hash is h).
func (t *table) count(h uint64, tup tuple.Tuple) uint64 {
	if i := t.find(h, tup); i != chainEnd {
		return t.entries[i].count
	}
	return 0
}

// take removes up to n occurrences of tup (whose hash is h), clamping at its
// multiplicity (monus), and returns the number actually removed.  A fully
// removed entry stays behind as a tombstone.
func (t *table) take(h uint64, tup tuple.Tuple, n uint64) uint64 {
	i := t.find(h, tup)
	if i == chainEnd {
		return 0
	}
	e := &t.entries[i]
	if n > e.count {
		n = e.count
	}
	if n == 0 {
		return 0
	}
	e.count -= n
	t.total -= n
	if e.count == 0 {
		t.live--
	}
	return n
}

// add increases the multiplicity of tup (whose hash is h) by n, reviving a
// tombstoned entry in place or inserting a fresh one.  It is the one copy of
// the probe/resurrect/insert sequence shared by the scalar, batched and merge
// sinks; callers handle copy-on-write materialisation and n == 0 skipping.
func (t *table) add(h uint64, tup tuple.Tuple, n uint64) {
	if i := t.find(h, tup); i != chainEnd {
		e := &t.entries[i]
		if e.count == 0 {
			t.live++
		}
		e.count += n
		t.total += n
		return
	}
	t.insert(h, tup, n)
}

// Relation is a multi-set relation instance.  The zero value is not usable;
// construct relations with New.  A Relation must not be copied by value.
type Relation struct {
	schema schema.Relation
	tab    *table
	// cow marks the table as shared with at least one other view (created by
	// Clone or WithSchema); the first mutation copies it privately.
	cow atomic.Bool
}

// New returns an empty relation instance of the given schema.
func New(s schema.Relation) *Relation { return NewWithCapacity(s, 0) }

// NewWithCapacity returns an empty relation pre-sized for about n distinct
// tuples, so bulk loads by the physical operators avoid rehash growth.
func NewWithCapacity(s schema.Relation, n int) *Relation {
	return &Relation{schema: s, tab: newTable(n)}
}

// FromTuples builds a relation containing the given tuples, each with
// multiplicity one per occurrence (duplicates in the argument accumulate).
func FromTuples(s schema.Relation, tuples ...tuple.Tuple) *Relation {
	r := NewWithCapacity(s, len(tuples))
	for _, t := range tuples {
		r.Add(t, 1)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Relation { return r.schema }

// materialize gives the relation a private table before a mutation when the
// current one is shared with other copy-on-write views.
func (r *Relation) materialize() {
	if !r.cow.Load() {
		return
	}
	r.tab = r.tab.clone()
	r.cow.Store(false)
}

// Multiplicity returns R(t), the number of occurrences of t in R.
func (r *Relation) Multiplicity(t tuple.Tuple) uint64 {
	if i := r.tab.find(t.Hash(), t); i != chainEnd {
		return r.tab.entries[i].count
	}
	return 0
}

// Contains reports t ∈ R, i.e. R(t) > 0.
func (r *Relation) Contains(t tuple.Tuple) bool { return r.Multiplicity(t) > 0 }

// Add increases the multiplicity of t by n.  Adding zero is a no-op.
func (r *Relation) Add(t tuple.Tuple, n uint64) {
	if n == 0 {
		return
	}
	r.materialize()
	r.tab.add(t.Hash(), t, n)
}

// Remove decreases the multiplicity of t by n, clamping at zero ("monus", the
// semantics of the multi-set difference operator).  It returns the number of
// occurrences actually removed.
func (r *Relation) Remove(t tuple.Tuple, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	r.materialize()
	return r.tab.take(t.Hash(), t, n)
}

// SetMultiplicity forces R(t) = n, inserting or deleting the entry as needed.
func (r *Relation) SetMultiplicity(t tuple.Tuple, n uint64) {
	r.materialize()
	tab := r.tab
	h := t.Hash()
	i := tab.find(h, t)
	if i == chainEnd {
		if n > 0 {
			tab.insert(h, t, n)
		}
		return
	}
	e := &tab.entries[i]
	switch {
	case e.count == 0 && n > 0:
		tab.live++
	case e.count > 0 && n == 0:
		tab.live--
	}
	tab.total += n - e.count
	e.count = n
}

// Cardinality returns |R| counting duplicates: Σ_x R(x).
func (r *Relation) Cardinality() uint64 { return r.tab.total }

// DistinctCount returns the number of distinct tuples with R(x) > 0.
func (r *Relation) DistinctCount() int { return r.tab.live }

// IsEmpty reports whether the relation contains no tuples.
func (r *Relation) IsEmpty() bool { return r.tab.total == 0 }

// Each calls fn once per distinct tuple with its multiplicity.  Iteration
// order is unspecified (relations are unordered collections).  If fn returns
// false, iteration stops.  fn must not mutate r.
func (r *Relation) Each(fn func(t tuple.Tuple, count uint64) bool) {
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 {
			continue
		}
		if !fn(entries[i].tup, entries[i].count) {
			return
		}
	}
}

// EachInPartition calls fn once per distinct tuple belonging to hash partition
// part of parts: the tuples whose cached hash satisfies hash mod parts == part.
// The partitions for a fixed parts are disjoint and cover the relation, which
// is what the parallel runtime's partitioned scans rely on; because the hash
// is cached per entry, selecting a partition costs one integer modulo per
// entry and never re-hashes attribute values.  If fn returns false, iteration
// stops.  fn must not mutate r.
func (r *Relation) EachInPartition(part, parts int, fn func(t tuple.Tuple, count uint64) bool) {
	if parts <= 1 {
		r.Each(fn)
		return
	}
	p, n := uint64(part), uint64(parts)
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 || entries[i].hash%n != p {
			continue
		}
		if !fn(entries[i].tup, entries[i].count) {
			return
		}
	}
}

// EachBatch calls fn with consecutive vectors of up to size live chunks
// (tuples[i] occurs counts[i] times), filled from the entry arena in one
// tight pass: the vectorised form of Each, with no per-tuple callback.  The
// slices passed to fn are reused between calls and must not be retained;
// the tuples inside them may be.  If fn returns false, iteration stops.
func (r *Relation) EachBatch(size int, fn func(tuples []tuple.Tuple, counts []uint64) bool) {
	if size <= 0 {
		size = 256
	}
	tuples := make([]tuple.Tuple, 0, size)
	counts := make([]uint64, 0, size)
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 {
			continue
		}
		tuples = append(tuples, entries[i].tup)
		counts = append(counts, entries[i].count)
		if len(tuples) == size {
			if !fn(tuples, counts) {
				return
			}
			tuples, counts = tuples[:0], counts[:0]
		}
	}
	if len(tuples) > 0 {
		fn(tuples, counts)
	}
}

// EntrySpan returns the size of the relation's entry arena — the index domain
// EachEntryRange iterates over.  The span counts tombstoned entries too, so it
// is stable across reads; it grows under insertion and shrinks only when a
// copy-on-write clone compacts the arena.  Morsel-driven scans cut
// [0, EntrySpan()) into work-stealing ranges.
func (r *Relation) EntrySpan() int { return len(r.tab.entries) }

// EachEntryRange calls fn once per live tuple stored in arena positions
// [lo, hi), clamped to the entry span.  The ranges of a partition of
// [0, EntrySpan()) are disjoint and cover the relation, which is what makes
// any morsel-wise split of a scan exact under bag semantics: every occurrence
// is delivered by exactly one range.  If fn returns false, iteration stops.
// fn must not mutate r.
func (r *Relation) EachEntryRange(lo, hi int, fn func(t tuple.Tuple, count uint64) bool) {
	entries := r.tab.entries
	if lo < 0 {
		lo = 0
	}
	if hi > len(entries) {
		hi = len(entries)
	}
	for i := lo; i < hi; i++ {
		if entries[i].count == 0 {
			continue
		}
		if !fn(entries[i].tup, entries[i].count) {
			return
		}
	}
}

// AddBatch adds tuples[i] with multiplicity counts[i] for every i, like a
// loop over Add but with the copy-on-write check hoisted out of the loop.  It
// is the sink half of the physical layer's batched emit: one call installs a
// whole output batch.  Zero counts are skipped.  The slices must have equal
// length; the relation keeps references to the tuples but not to the slices.
func (r *Relation) AddBatch(tuples []tuple.Tuple, counts []uint64) {
	if len(tuples) == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	for i, t := range tuples {
		if counts[i] == 0 {
			continue
		}
		tab.add(t.Hash(), t, counts[i])
	}
}

// AddBatchSel is AddBatch over a selection vector: only the physical rows
// listed in sel (ascending indices into tuples/counts) are added.  It is the
// sink half of the columnar emit contract — a filtered batch lands in the
// relation without ever being compacted.  Zero counts are skipped.
func (r *Relation) AddBatchSel(tuples []tuple.Tuple, counts []uint64, sel []int32) {
	if len(sel) == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	for _, i := range sel {
		if counts[i] == 0 {
			continue
		}
		t := tuples[i]
		tab.add(t.Hash(), t, counts[i])
	}
}

// MergeFrom adds every tuple of o to r with its multiplicity (multi-set union
// in place): the merge step of the parallel runtime's exchange operators.  It
// reuses o's cached entry hashes, so merging partial results never re-hashes
// attribute values.  o is not modified.
func (r *Relation) MergeFrom(o *Relation) {
	if o.tab.total == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	entries := o.tab.entries
	for i := range entries {
		e := &entries[i]
		if e.count == 0 {
			continue
		}
		tab.add(e.hash, e.tup, e.count)
	}
}

// EachOccurrence calls fn once per occurrence, i.e. a tuple with multiplicity
// k is visited k times.  If fn returns false, iteration stops.
func (r *Relation) EachOccurrence(fn func(t tuple.Tuple) bool) {
	entries := r.tab.entries
	for i := range entries {
		for k := uint64(0); k < entries[i].count; k++ {
			if !fn(entries[i].tup) {
				return
			}
		}
	}
}

// Tuples returns all occurrences as a flat slice (duplicates expanded), in
// canonical (sorted) order for deterministic output.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.tab.total)
	r.EachSorted(func(t tuple.Tuple, count uint64) bool {
		for i := uint64(0); i < count; i++ {
			out = append(out, t)
		}
		return true
	})
	return out
}

// Distinct returns the distinct tuples in canonical (sorted) order.
func (r *Relation) Distinct() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.tab.live)
	r.EachSorted(func(t tuple.Tuple, _ uint64) bool {
		out = append(out, t)
		return true
	})
	return out
}

// EachSorted iterates distinct tuples in canonical lexicographic order.  It is
// intended for deterministic rendering and test assertions; the algebra never
// relies on order.
func (r *Relation) EachSorted(fn func(t tuple.Tuple, count uint64) bool) {
	entries := r.tab.entries
	idx := make([]int32, 0, r.tab.live)
	for i := range entries {
		if entries[i].count > 0 {
			idx = append(idx, int32(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return entries[idx[a]].tup.Compare(entries[idx[b]].tup) < 0
	})
	for _, i := range idx {
		if !fn(entries[i].tup, entries[i].count) {
			return
		}
	}
}

// Clone returns an independent copy of the relation in O(1): the table is
// shared copy-on-write, and whichever side mutates first copies it privately.
// Tuples are immutable and always shared.
func (r *Relation) Clone() *Relation {
	r.cow.Store(true)
	cp := &Relation{schema: r.schema, tab: r.tab}
	cp.cow.Store(true)
	return cp
}

// WithSchema returns a re-typed view of the relation carrying a different
// (but compatible) schema.  Like Clone, the view shares the table
// copy-on-write, so it is safe to mutate either side afterwards.
func (r *Relation) WithSchema(s schema.Relation) *Relation {
	r.cow.Store(true)
	cp := &Relation{schema: s, tab: r.tab}
	cp.cow.Store(true)
	return cp
}

// Equal implements Definition 2.3's equality: R1 = R2 ⇔ ∀x R1(x) = R2(x).
func (r *Relation) Equal(o *Relation) bool {
	if r.tab.total != o.tab.total || r.tab.live != o.tab.live {
		return false
	}
	if r.tab == o.tab {
		return true
	}
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 {
			continue
		}
		j := o.tab.find(entries[i].hash, entries[i].tup)
		if j == chainEnd || o.tab.entries[j].count != entries[i].count {
			return false
		}
	}
	return true
}

// SubsetOf implements Definition 2.3's multi-subset: R1 ⊑ R2 ⇔ ∀x R1(x) ≤ R2(x).
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.tab.total > o.tab.total {
		return false
	}
	if r.tab == o.tab {
		return true
	}
	entries := r.tab.entries
	for i := range entries {
		if entries[i].count == 0 {
			continue
		}
		j := o.tab.find(entries[i].hash, entries[i].tup)
		if j == chainEnd || o.tab.entries[j].count < entries[i].count {
			return false
		}
	}
	return true
}

// String renders the relation as a sorted multi-set literal
// {t1^m1, t2^m2, ...} with multiplicities shown when greater than one.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	r.EachSorted(func(t tuple.Tuple, count uint64) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(t.String())
		if count > 1 {
			fmt.Fprintf(&b, "^%d", count)
		}
		return true
	})
	b.WriteByte('}')
	return b.String()
}
