package digital

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSynthesizeRoundTrip(t *testing.T) {
	// Synthesize the classic "101" overlapping detector and verify the
	// gate-level machine agrees with the state table on a long stream.
	st, err := SequenceDetectorTable([]int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := SynthesizeDFF(st)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1}
	wantStates, wantOut, err := st.Step(0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	gotStates, gotOut := fsm.Run(0, inputs)
	for i := range wantStates {
		if gotStates[i] != wantStates[i] {
			t.Fatalf("state diverges at %d: got %v want %v", i, gotStates, wantStates)
		}
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("output diverges at %d: got %v want %v", i, gotOut, wantOut)
		}
	}
}

func TestSequenceDetectorOutputs(t *testing.T) {
	st, err := SequenceDetectorTable([]int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1 1 0 1 1 0: detections at positions 3 and 6 (1-based).
	_, outs, err := st.Step(0, []int{1, 1, 0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 0, 0, 1}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outputs %v, want %v", outs, want)
		}
	}
}

func TestSequenceDetectorOverlap(t *testing.T) {
	// "11" detector with overlap: stream 1 1 1 fires at steps 2 and 3.
	st, err := SequenceDetectorTable([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, outs, err := st.Step(0, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outputs %v, want %v", outs, want)
		}
	}
}

func TestQuickSynthesisMatchesTable(t *testing.T) {
	// Property: for random state tables, the synthesized logic replays
	// identically to the behavioural table.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		st := &StateTable{NumStates: n, Next: make([][2]int, n), Output: make([][2]int, n)}
		for s := 0; s < n; s++ {
			for b := 0; b <= 1; b++ {
				st.Next[s][b] = r.Intn(n)
				st.Output[s][b] = r.Intn(2)
			}
		}
		fsm, err := SynthesizeDFF(st)
		if err != nil {
			return false
		}
		inputs := make([]int, 12)
		for i := range inputs {
			inputs[i] = r.Intn(2)
		}
		wantStates, wantOut, err := st.Step(0, inputs)
		if err != nil {
			return false
		}
		gotStates, gotOut := fsm.Run(0, inputs)
		for i := range wantStates {
			if gotStates[i] != wantStates[i] {
				return false
			}
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := SynthesizeDFF(&StateTable{NumStates: 1, Next: make([][2]int, 1)}); err == nil {
		t.Error("single-state machine accepted")
	}
	bad := &StateTable{NumStates: 2, Next: [][2]int{{0, 5}, {0, 0}}}
	if _, err := SynthesizeDFF(bad); err == nil {
		t.Error("invalid transition accepted")
	}
	if _, err := SequenceDetectorTable(nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := SequenceDetectorTable([]int{1, 2}); err == nil {
		t.Error("non-binary pattern accepted")
	}
}

func TestEquationsRender(t *testing.T) {
	st, _ := SequenceDetectorTable([]int{1, 0, 1})
	fsm, err := SynthesizeDFF(st)
	if err != nil {
		t.Fatal(err)
	}
	eqs := fsm.Equations()
	if len(eqs) != fsm.StateBits+1 {
		t.Fatalf("equations %v", eqs)
	}
	for _, e := range eqs {
		if e == "" {
			t.Error("empty equation")
		}
	}
}

// Step and Run simulate a synthesized machine so the tests can compare
// it with its state table.

// Step runs one clock of the synthesized machine: given the current
// state code and input bit, it evaluates the D equations (and output).
func (f *SynthesizedFSM) Step(state, input int) (next int, output int) {
	assign := make(map[string]bool, f.StateBits+1)
	for i := 0; i < f.StateBits; i++ {
		assign[fmt.Sprintf("Q%d", i)] = state&(1<<i) != 0
	}
	assign["X"] = input != 0
	for b, e := range f.Next {
		if e.Eval(assign) {
			next |= 1 << b
		}
	}
	if f.Output != nil && f.Output.Eval(assign) {
		output = 1
	}
	return next, output
}

// Run replays an input sequence from a start state, returning the
// visited states (including the start) and outputs — directly comparable
// to StateTable.Step.
func (f *SynthesizedFSM) Run(start int, inputs []int) (states, outputs []int) {
	states = append(states, start)
	s := start
	for _, in := range inputs {
		var out int
		s, out = f.Step(s, in)
		states = append(states, s)
		outputs = append(outputs, out)
	}
	return states, outputs
}
