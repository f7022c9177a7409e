package main

import (
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
)

func TestEquivCheckerCatchesCorruption(t *testing.T) {
	// EX68 has 14 PIs (one simulation), EX02 18 (four chunks with the
	// top two inputs held constant).
	for _, name := range []string{"EX68", "EX02"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build()
		c, err := newEquivChecker(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(rebuild(g, -1, -1)); err != nil {
			t.Fatalf("%s: faithful copy rejected: %v", name, err)
		}
		caught := 0
		for _, flip := range []int{0, g.NumAnds() / 2, g.NumAnds() - 1} {
			if c.check(rebuild(g, flip, -1)) != nil {
				caught++
			}
		}
		// A flipped fanin can be masked (redundant logic), but not at
		// every probed position.
		if caught == 0 {
			t.Fatalf("%s: no corrupted copy was caught", name)
		}
		if err := c.check(rebuild(g, -1, g.NumPOs()-1)); err == nil {
			t.Fatalf("%s: inverted output not caught", name)
		}
	}
}

func TestEquivCheckerChunksAgreeWithExhaustive(t *testing.T) {
	// On a design small enough for aig.EquivalentExhaustive both checks
	// must give the same verdicts.
	d, err := bench.ByName("EX68")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	c, err := newEquivChecker(g)
	if err != nil {
		t.Fatal(err)
	}
	for flip := 0; flip < g.NumAnds(); flip += g.NumAnds()/16 + 1 {
		h := rebuild(g, flip, -1)
		if got, want := c.check(h) == nil, aig.EquivalentExhaustive(g, h); got != want {
			t.Fatalf("flip %d: checker says equivalent=%v, EquivalentExhaustive %v", flip, got, want)
		}
	}
}
