package main

import (
	"reflect"
	"testing"
)

func solveRounds(seed uint64, n int) [][]solveKey {
	o := newSolveOrder(seed)
	var out [][]solveKey
	for range n {
		out = append(out, o.next())
	}
	return out
}

func deal(seed uint64, stream int, counts []int, n int) []int {
	d := newDeck(seed, stream, counts)
	out := make([]int, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

func TestSameSeedSameOperations(t *testing.T) {
	if !reflect.DeepEqual(solveRounds(7, 5), solveRounds(7, 5)) {
		t.Fatal("solve: one seed dealt two different round orders")
	}
	if !reflect.DeepEqual(deal(7, 0, hotMix, 50), deal(7, 0, hotMix, 50)) {
		t.Fatal("serve-hot: one seed dealt two different key sequences")
	}
}

func TestDifferentSeedsDifferentOperations(t *testing.T) {
	if reflect.DeepEqual(solveRounds(7, 5), solveRounds(8, 5)) {
		t.Fatal("solve: seeds 7 and 8 dealt the same round orders")
	}
	if reflect.DeepEqual(deal(7, 0, hotMix, 50), deal(8, 0, hotMix, 50)) {
		t.Fatal("serve-hot: seeds 7 and 8 dealt the same key sequence")
	}
	if reflect.DeepEqual(deal(7, 0, hotMix, 50), deal(7, 1, hotMix, 50)) {
		t.Fatal("serve-hot: both clients of one seed dealt the same key sequence")
	}
}

func TestRoundsCoverEveryRunOnce(t *testing.T) {
	for _, round := range solveRounds(3, 4) {
		seen := map[solveKey]int{}
		for _, k := range round {
			seen[k]++
		}
		if len(round) != 2*len(algos) || len(seen) != 2*len(algos) {
			t.Fatalf("round %v does not run every algorithm once in each direction", round)
		}
	}
}

func TestDeckKeepsTheMixPerCycle(t *testing.T) {
	cycle := 0
	for _, n := range hotMix {
		cycle += n
	}
	seq := deal(5, 0, hotMix, 4*cycle)
	for c := 0; c < 4; c++ {
		counts := make([]int, len(hotMix))
		for _, k := range seq[c*cycle : (c+1)*cycle] {
			counts[k]++
		}
		if !reflect.DeepEqual(counts, hotMix) {
			t.Fatalf("cycle %d dealt %v, want %v", c, counts, hotMix)
		}
	}
}
