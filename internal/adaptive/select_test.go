package adaptive

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

// linearSelect is the whole-bank scan the class tables replaced, kept
// as the selection oracle: the unasked item maximising (information
// desc, key asc, QuestionID asc), or -1 when every item is asked.
func linearSelect(bank []BankItem, asked []bool, ability float64, seed string, key func(seed, questionID string) uint64) int {
	best := -1
	var bestInfo float64
	var bestKey uint64
	for bi := range bank {
		if asked[bi] {
			continue
		}
		info := bank[bi].Params.Information(ability)
		if best >= 0 && info < bestInfo {
			continue
		}
		k := key(seed, bank[bi].Params.QuestionID)
		switch {
		case best < 0 || info > bestInfo:
		case k < bestKey:
		case k == bestKey && bank[bi].Params.QuestionID < bank[best].Params.QuestionID:
		default:
			continue
		}
		best, bestInfo, bestKey = bi, info, k
	}
	return best
}

// Parameter pools for random banks. Drawing from short prefixes makes
// many items share (Disc, Diff); the Diff pool is symmetric around the
// probe abilities, so items of different classes tie on information.
var (
	discPool = []float64{1, 0.5, 2, 1.5, 0.75}
	diffPool = []float64{0, -1, 1, -0.5, 0.5, -2, 2, -3.9, 3.9}
	probes   = []float64{0, 0.5, -0.5, 1, -1, 2, -4, 4}
)

// randomBank draws n items. nDisc and nDiff pick how many pool values
// are in play; 0 draws that parameter continuously instead.
func randomBank(s *rng.Stream, n, nDisc, nDiff int) []BankItem {
	bank := make([]BankItem, n)
	for i := range bank {
		id := fmt.Sprintf("q%03d", s.IntN(1000*n))
		for dupID(bank[:i], id) {
			id += "x"
		}
		p := ItemParams{QuestionID: id}
		if nDisc == 0 {
			p.Disc = 0.25 + 2*s.Float64()
		} else {
			p.Disc = discPool[s.IntN(nDisc)]
		}
		if nDiff == 0 {
			p.Diff = 8*s.Float64() - 4
		} else {
			p.Diff = diffPool[s.IntN(nDiff)]
		}
		bank[i] = BankItem{Question: &dataset.Question{ID: id}, Params: p}
	}
	return bank
}

func dupID(bank []BankItem, id string) bool {
	for _, it := range bank {
		if it.Question.ID == id {
			return true
		}
	}
	return false
}

func shuffled(s *rng.Stream, bank []BankItem) []BankItem {
	out := append([]BankItem(nil), bank...)
	for i := len(out) - 1; i > 0; i-- {
		j := s.IntN(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FuzzSelectMatchesLinearScan drives class-grouped selection over a
// random bank and over a shuffled copy of it, seat by seat at random
// and tie-prone abilities, and checks every choice against the
// linear-scan oracle. coarse > 0 folds the tie-break key modulo coarse,
// forcing key ties down to QuestionID order (coarse 1 ties every key).
func FuzzSelectMatchesLinearScan(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(1), uint8(1), uint8(0))  // one class
	f.Add(uint64(2), uint8(120), uint8(2), uint8(9), uint8(0)) // many duplicates
	f.Add(uint64(3), uint8(120), uint8(5), uint8(9), uint8(1)) // every key tied
	f.Add(uint64(4), uint8(90), uint8(3), uint8(5), uint8(3))  // frequent key ties
	f.Add(uint64(5), uint8(60), uint8(0), uint8(0), uint8(0))  // all distinct
	f.Add(uint64(6), uint8(255), uint8(1), uint8(9), uint8(2)) // symmetric info ties
	f.Add(uint64(7), uint8(0), uint8(4), uint8(3), uint8(0))   // single item
	f.Add(uint64(8), uint8(200), uint8(5), uint8(0), uint8(0)) // continuous Diff
	f.Fuzz(func(t *testing.T, seed uint64, n, nDisc, nDiff, coarse uint8) {
		s := rng.NewStream("select-fuzz", fmt.Sprint(seed))
		bank := randomBank(&s, 1+int(n), int(nDisc)%(len(discPool)+1), int(nDiff)%(len(diffPool)+1))
		key := selectKey
		if coarse > 0 {
			key = func(seed, id string) uint64 { return selectKey(seed, id) % uint64(coarse) }
		}
		models := []eval.Model{skillModel{"a", 0.5}, skillModel{"b", 0.5}}
		cfg := Config{Seed: "fuzz"}
		trns := make([]*Tournament, 2)
		for i, b := range [][]BankItem{bank, shuffled(&s, bank)} {
			trn, err := newTournament(models, b, cfg, key)
			if err != nil {
				t.Fatal(err)
			}
			trns[i] = trn
		}
		asked := [][]bool{make([]bool, len(bank)), make([]bool, len(bank))}
		// Construction already issued each seat's first item at the
		// prior ability.
		for si := range models {
			ability, _ := trns[0].seats[si].est.Estimate()
			want := linearSelect(bank, asked[si], ability, cfg.Seed, key)
			for _, trn := range trns {
				if got := trn.ready[si].Question.ID; got != bank[want].Question.ID {
					t.Fatalf("seat %d first item %s, oracle %s", si, got, bank[want].Question.ID)
				}
			}
			asked[si][want] = true
		}
		// Three draws per item on average run both seats dry.
		for step := 0; step < 3*len(bank); step++ {
			si := s.IntN(2)
			ability := 10*s.Float64() - 5
			if s.IntN(2) == 0 {
				ability = probes[s.IntN(len(probes))]
			}
			want := linearSelect(bank, asked[si], ability, cfg.Seed, key)
			for i, trn := range trns {
				c := trn.selectClass(si, ability)
				if c < 0 || want < 0 {
					if c >= 0 || want >= 0 {
						t.Fatalf("step %d seat %d bank %d: class %d, oracle item %d", step, si, i, c, want)
					}
					continue
				}
				if got := trn.bank[trn.take(si, c)].Question.ID; got != bank[want].Question.ID {
					t.Fatalf("step %d seat %d ability %v bank %d: chose %s, oracle %s",
						step, si, ability, i, got, bank[want].Question.ID)
				}
			}
			if want >= 0 {
				asked[si][want] = true
			}
		}
	})
}

// TestTournamentBankOrderInvariant: the full adaptive transcript is
// identical whatever order the bank slice lists its items in — the
// DESIGN.md §15 invariant that selection keys on question identity,
// never on bank position.
func TestTournamentBankOrderInvariant(t *testing.T) {
	_, bank := testBank(t, 36)
	models := testModels()
	run := func(bank []BankItem) string {
		trn, err := NewTournament(models, bank, Config{Seed: "order"})
		if err != nil {
			t.Fatal(err)
		}
		var evs []eval.Event
		r := eval.Runner{Workers: 2, Observer: eval.ObserverFunc(func(ev eval.Event) {
			evs = append(evs, ev)
		})}
		if _, err := r.EvaluateAdaptiveContext(context.Background(), models, trn); err != nil {
			t.Fatal(err)
		}
		return transcript(evs)
	}
	want := run(bank)
	s := rng.NewStream("bank-order")
	for i := 0; i < 3; i++ {
		if got := run(shuffled(&s, bank)); got != want {
			t.Fatalf("shuffle %d: transcript differs from bank order:\n%s\nvs\n%s", i, got, want)
		}
	}
}
