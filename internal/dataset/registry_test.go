package dataset

import (
	"sort"
	"strings"
	"testing"
)

func fakeGen(name string, c Category) Generator {
	return Generator{
		Name:     name,
		Category: c,
		Generate: func() []*Question { return nil },
		ExtraAt:  func(seed string, i int) *Question { return nil },
	}
}

func mustPanic(t *testing.T, wantSubstr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want panic containing %q", wantSubstr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSubstr) {
			t.Fatalf("panic %v, want message containing %q", r, wantSubstr)
		}
	}()
	fn()
}

// TestRegistry exercises the generator registry end to end in one
// sequence (the registry is process-global, so ordering matters): fakes
// registered out of category order come back in canonical Table I
// order, and every wiring bug panics at registration.
// Discipline packages are NOT imported by this test binary, so the
// registry here holds only the fakes.
func TestRegistry(t *testing.T) {
	for _, g := range []Generator{
		fakeGen("t-phys", Physical),
		fakeGen("t-dig", Digital),
		fakeGen("t-manuf", Manufacture),
	} {
		RegisterGenerator(g)
	}
	gens := Generators()
	if len(gens) != 3 {
		t.Fatalf("Generators() returned %d entries, want 3", len(gens))
	}
	if !sort.SliceIsSorted(gens, func(i, j int) bool { return gens[i].Category < gens[j].Category }) {
		t.Fatalf("Generators() not in canonical category order: %+v", gens)
	}
	if gens[0].Name != "t-dig" || gens[2].Name != "t-phys" {
		t.Fatalf("canonical order wrong: got %s..%s", gens[0].Name, gens[2].Name)
	}

	mustPanic(t, "incomplete", func() {
		RegisterGenerator(Generator{Name: "t-broken", Category: Analog, Generate: func() []*Question { return nil }})
	})
	mustPanic(t, "unknown category", func() {
		RegisterGenerator(fakeGen("t-out-of-range", Category(99)))
	})
	mustPanic(t, "duplicate generator name", func() {
		RegisterGenerator(fakeGen("t-dig", Analog))
	})
	mustPanic(t, "already registered", func() {
		RegisterGenerator(fakeGen("t-dig2", Digital))
	})
}

func TestIndexOf(t *testing.T) {
	xs := []string{"low", "mid", "high"}
	if got := IndexOf(xs, "mid"); got != 1 {
		t.Errorf("IndexOf mid = %d, want 1", got)
	}
	// A miss aliases to 0 by contract — callers use the result modularly.
	if got := IndexOf(xs, "absent"); got != 0 {
		t.Errorf("IndexOf absent = %d, want 0", got)
	}
	if got := IndexOf(nil, "x"); got != 0 {
		t.Errorf("IndexOf on nil = %d, want 0", got)
	}
}

func TestSortInts(t *testing.T) {
	cases := [][]int{
		nil,
		{1},
		{3, 1, 2},
		{5, 5, 1, 0, 5},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	for _, c := range cases {
		got := append([]int(nil), c...)
		want := append([]int(nil), c...)
		SortInts(got)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SortInts(%v) = %v, want %v", c, got, want)
			}
		}
	}
}

func TestPickOthers(t *testing.T) {
	pool := []string{"0", "1", "C", "C'"}
	got := PickOthers("C", pool)
	if got != [3]string{"0", "1", "C'"} {
		t.Errorf("PickOthers(C) = %v", got)
	}
	// Answer not in the pool: first three entries in pool order.
	if got := PickOthers("zz", pool); got != [3]string{"0", "1", "C"} {
		t.Errorf("PickOthers(zz) = %v", got)
	}
	// Too-small pool leaves trailing slots empty rather than repeating.
	if got := PickOthers("a", []string{"a", "b"}); got != [3]string{"b", "", ""} {
		t.Errorf("PickOthers small pool = %v", got)
	}
}
