package bag

import (
	"maps"
	"testing"

	"dvm/internal/schema"
)

// FuzzBagOps interprets the input as a program of Add/Remove/RemoveBag/
// Clear operations executed against both a Bag and a plain
// map[string]int reference model, then checks the bag's accounting
// (Len, Distinct, Count) against the model and the algebraic laws of
// Section 2.1 that the DEL/ADD differentials depend on. Each RemoveBag
// is also checked against Monus and against an index built before it
// and brought up to date with Sync.
func FuzzBagOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 2, 1, 3})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 9, 3, 3, 3})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 2, 0, 5, 3, 255, 0, 0, 0})
	f.Add([]byte{0, 7, 3, 1, 12, 2, 5, 7, 1, 5, 12, 3, 5, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		b := New()
		model := map[string]int{}
		size := 0

		// Each op consumes up to 3 bytes: opcode, tuple id, count.
		for i := 0; i+2 < len(data); i += 3 {
			tu := schema.Row(int(data[i+1]%5), int(data[i+1]/5%5))
			n := int(data[i+2] % 4)
			key := tu.Key()
			switch data[i] % 8 {
			case 0, 1, 2:
				b.Add(tu, n)
				model[key] += n
			case 3, 4:
				b.Remove(tu, n)
				model[key] -= n
			case 5:
				// o holds n copies of tu plus one of a second tuple.
				other := schema.Row(int(data[i+2]%5), int(data[i+1]%5))
				o := New().Add(tu, n).Add(other, 1)
				checkRemoveBag(t, b, o)
				model[key] -= n
				if model[other.Key()]--; model[other.Key()] <= 0 {
					delete(model, other.Key())
				}
			case 7:
				b.Clear()
				model = map[string]int{}
			}
			// The model mirrors the bag's floor-at-zero semantics.
			if model[key] <= 0 {
				delete(model, key)
			}
			size = 0
			for _, c := range model {
				size += c
			}
		}

		if b.Len() != size {
			t.Fatalf("Len = %d, model says %d", b.Len(), size)
		}
		if b.Distinct() != len(model) {
			t.Fatalf("Distinct = %d, model says %d", b.Distinct(), len(model))
		}
		b.Each(func(tu schema.Tuple, n int) {
			if model[tu.Key()] != n {
				t.Fatalf("Count(%s) = %d, model says %d", tu, n, model[tu.Key()])
			}
		})

		// Algebraic laws over (b, other), with other built from the tail
		// of the input read in reverse so the two bags differ.
		other := New()
		for i := len(data) - 1; i >= 2; i -= 3 {
			other.Add(schema.Row(int(data[i]%5), int(data[i-1]%5)), 1+int(data[i-2]%2))
		}

		// (b ⊎ o) ∸ o = b  (monus undoes union-all exactly).
		if !Monus(UnionAll(b, other), other).Equal(b) {
			t.Fatal("Monus(UnionAll(b, o), o) != b")
		}
		// min is a lower bound of both; max an upper bound of b.
		lo := Min(b, other)
		if !lo.SubBagOf(b) || !lo.SubBagOf(other) {
			t.Fatal("Min(b, o) not a subbag of both arguments")
		}
		if !b.SubBagOf(Max(b, other)) {
			t.Fatal("b not a subbag of Max(b, o)")
		}
		// except ⊆ b and is disjoint from o's support.
		ex := Except(b, other)
		if !ex.SubBagOf(b) {
			t.Fatal("Except(b, o) not a subbag of b")
		}
		ex.Each(func(tu schema.Tuple, n int) {
			if other.Contains(tu) {
				t.Fatalf("Except(b, o) kept %s, which o contains", tu)
			}
		})
		// ε collapses every multiplicity to exactly one.
		DupElim(b).Each(func(tu schema.Tuple, n int) {
			if n != 1 {
				t.Fatalf("DupElim multiplicity %d for %s", n, tu)
			}
		})
		// EachOrdered visits the same contents as Each, just ordered.
		ordered := New()
		b.EachOrdered(func(tu schema.Tuple, n int) { ordered.Add(tu, n) })
		if !ordered.Equal(b) {
			t.Fatal("EachOrdered visited different contents than Each")
		}
	})
}

// checkRemoveBag runs b.RemoveBag(o) and checks the result against
// Monus(b, o), the journal against one entry per distinct tuple of o,
// and an index built before the removal and then Synced against one
// built from scratch afterwards.
func checkRemoveBag(t *testing.T, b, o *Bag) {
	t.Helper()
	want := Monus(b, o)
	pos := []int{1}
	ix := NewIndex(b, pos)
	before := b.Version()
	b.RemoveBag(o)
	if !b.Equal(want) {
		t.Fatalf("RemoveBag = %v, Monus says %v", b, want)
	}
	if got := b.Version() - before; got != uint64(o.Distinct()) {
		t.Fatalf("RemoveBag bumped the version %d times, want one per distinct tuple (%d)", got, o.Distinct())
	}
	applied, ok := ix.Sync(b)
	if !ok {
		// Only a journal window that overflowed past the index's
		// version may refuse.
		if b.jbase <= before {
			t.Fatal("Sync refused although the journal covers the RemoveBag")
		}
		return
	}
	if applied != o.Distinct() {
		t.Fatalf("Sync applied %d journal entries, want %d", applied, o.Distinct())
	}
	if got, want := indexContents(ix), indexContents(NewIndex(b, pos)); !maps.Equal(got, want) {
		t.Fatalf("synced index %v, rebuilt index %v", got, want)
	}
}

// indexContents flattens an index to index key + tuple key → count.
func indexContents(ix *Index) map[string]int {
	out := map[string]int{}
	for k, bucket := range ix.m {
		for _, e := range bucket {
			out[k+"|"+e.Key] += e.Count
		}
	}
	return out
}
