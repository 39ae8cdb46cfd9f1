package adaptive

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/vlm"
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
// Past its first five values discPool is extreme (extremeDiscs): banks
// drawing from six or more mix items whose information is 0, subnormal,
// near the float maximum or +Inf into ordinary ones.
var (
	discPool = append([]float64{1, 0.5, 2, 1.5, 0.75}, extremeDiscs...)
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

// extremeDiscs are discriminations whose disc·disc underflows to 0
// (1e-170), is subnormal (1e-160), is within a few binades of the float
// maximum (1e154) or overflows to +Inf (1e160).
var extremeDiscs = []float64{1e-170, 1e160, 1e-160, 1e154}

// boundThetas are the abilities the bound tests probe for an item:
// ±1e300, Diff itself (where P(1-P) peaks) and a few ulps beside it,
// up to 64 steps of 2^-40, 2^-26 and 2^-12 either side of it, every
// grid point, and where |z| = disc·|θ−Diff| nears, reaches and passes
// the clamp at 35.
func boundThetas(disc, diff float64) []float64 {
	thetas := []float64{1e300, -1e300}
	for up, down, k := diff, diff, 0; k <= 4; k++ {
		thetas = append(thetas, up, down)
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
	}
	for _, step := range []int{-40, -26, -12} {
		for j := -64; j <= 64; j++ {
			thetas = append(thetas, diff+float64(j)*math.Ldexp(1, step))
		}
	}
	for k := range gridN {
		thetas = append(thetas, gridTheta(k))
	}
	for _, z := range []float64{34.5, 35, 36, 1e3} {
		thetas = append(thetas, diff+z/disc, diff-z/disc)
	}
	return thetas
}

var boundDiffs = []float64{0, 0.3, -1.7, 3.9, -3.9}

// TestInformationBound: Information never exceeds its class's bound at
// any of boundThetas. The bound must also be monotone in Disc, for the
// bound-ordered class scan.
func TestInformationBound(t *testing.T) {
	discs := append([]float64{0.5, 1, 2, 0.7, 1.3, 1.9999999999999998}, extremeDiscs...)
	for _, disc := range discs {
		bound := infoBound(disc)
		for _, diff := range boundDiffs {
			p := ItemParams{Disc: disc, Diff: diff}
			for _, th := range boundThetas(disc, diff) {
				if info := p.Information(th); !(info <= bound) {
					t.Fatalf("disc %v diff %v theta %v: information %v above bound %v", disc, diff, th, info, bound)
				}
			}
		}
	}
	sorted := slices.Clone(discs)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if infoBound(sorted[i]) < infoBound(sorted[i-1]) {
			t.Errorf("bound of disc %v below bound of disc %v", sorted[i], sorted[i-1])
		}
	}
}

// TestDiffBound: the Diff-aware test (below) never skips a class when
// the best information found equals the class's own computed
// information at any of boundThetas; so the bound, as the scan
// evaluates it, is at least Information there. The discs are
// discPool's five ordinary ones, every one of extremeDiscs, and both
// edges of diffBound's normal range, where disc² is 2^±900. For
// ordinary discs the bound must also prune: at z = 0 a best a hair
// above the peak skips the class, and at |z| ≥ 35 a best of
// disc²·1e-6 does.
func TestDiffBound(t *testing.T) {
	type discCase struct {
		disc    float64
		inRange bool // disc² in [2^-900, 2^900]
	}
	cases := []discCase{{0x1p450, true}, {0x1p-450, true},
		{math.Nextafter(0x1p450, 1e300), false}, {math.Nextafter(0x1p-450, 0), false}}
	for _, disc := range discPool[:5] {
		cases = append(cases, discCase{disc, true})
	}
	for _, disc := range extremeDiscs {
		cases = append(cases, discCase{disc, false})
	}
	for _, dc := range cases {
		disc := dc.disc
		a1, a2 := diffBound(disc)
		if dc.inRange == math.IsInf(a1, 1) {
			t.Fatalf("disc %v: a1 %v, want +Inf exactly outside the normal range", disc, a1)
		}
		for _, diff := range boundDiffs {
			cl := itemClass{disc: disc, diff: diff, a1: a1, a2: a2}
			p := ItemParams{Disc: disc, Diff: diff}
			for _, th := range boundThetas(disc, diff) {
				if info := p.Information(th); cl.below(th, info) {
					t.Fatalf("disc %v diff %v theta %v: skipped against its own information %v", disc, diff, th, info)
				}
			}
			if disc < 0.5 || disc > 2 {
				continue
			}
			if peak := disc * disc / 4; !cl.below(diff, peak*(1+0x1p-30)) {
				t.Errorf("disc %v diff %v: not skipped at z = 0 against %v", disc, diff, peak*(1+0x1p-30))
			}
			for _, z := range []float64{35, -35, 1e3, -1e3} {
				if th := diff + z/disc; !cl.below(th, disc*disc*1e-6) {
					t.Errorf("disc %v diff %v theta %v: not skipped at |z| >= 35 against %v", disc, diff, th, disc*disc*1e-6)
				}
			}
		}
	}
}

// FuzzInformationWithinDiffBound: for any valid item and any ability,
// below never reports a class under its own computed information.
func FuzzInformationWithinDiffBound(f *testing.F) {
	f.Add(1.0, 0.0, 0.0)
	f.Add(1.3, 0.3, 0.3000000000000001)
	f.Add(2.0, 1.0, 18.5)       // z = 35
	f.Add(0.5, -3.9, 1e300)     // clamped far above
	f.Add(0.75, 3.9, -1e300)    // clamped far below
	f.Add(1e-160, 0.0, 0.0)     // subnormal disc²
	f.Add(1e154, 1.0, 1.0)      // disc² near the float maximum
	f.Add(0x1p450, 0.0, 1e-136) // disc² = 2^900, the edge of the normal range
	// Above the bound without a1's and a2's margins, and (subnormal
	// information) without diffBound's range check.
	f.Add(5.8147097943648554e+134, 0.0, 3.3333333333333335e-137)
	f.Add(1.1666666666666668e-160, 0.0, -44.0)
	f.Fuzz(func(t *testing.T, disc, diff, theta float64) {
		if !finite(disc) || !finite(diff) || disc <= 0 {
			t.Skip()
		}
		a1, a2 := diffBound(disc)
		cl := itemClass{disc: disc, diff: diff, a1: a1, a2: a2}
		if info := (ItemParams{Disc: disc, Diff: diff}).Information(theta); cl.below(theta, info) {
			t.Fatalf("disc %v diff %v theta %v: skipped against its own information %v", disc, diff, theta, info)
		}
	})
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

	// Extreme discriminations (extremeDiscs) among ordinary ones.
	f.Add(uint64(9), uint8(150), uint8(9), uint8(9), uint8(0))  // every extreme disc
	f.Add(uint64(10), uint8(80), uint8(7), uint8(2), uint8(1))  // zero and +Inf information, keys tied
	f.Add(uint64(11), uint8(200), uint8(8), uint8(0), uint8(3)) // subnormal information, continuous Diff

	// Diffs symmetric around the probes, so classes of one disc tie on
	// information bit for bit: the Diff-aware bound of a class that
	// ties the best must not skip it.
	f.Add(uint64(12), uint8(200), uint8(3), uint8(5), uint8(1)) // ties decided by QuestionID
	f.Add(uint64(13), uint8(255), uint8(5), uint8(9), uint8(2)) // ties decided by key, then QuestionID
	f.Add(uint64(14), uint8(120), uint8(6), uint8(3), uint8(0)) // zero information among ties
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

// Ceilings TestSelectionWorkCount holds the bench bank's means per
// issued item to. The Disc bound alone evaluates Information 48.96
// times per item; with the Diff bound the mean reads 9.20. Walking
// every class until the Disc bound's stop visits 179.4 classes per
// item; walking only the seat's live classes visits 49.3.
const (
	maxInfoEvalsPerItem = 10
	maxVisitsPerItem    = 55
)

// benchTournaments runs five tournaments to completion on the bench
// bank: the zoo calibrated on a 200-per-discipline fold, the bank
// adaptive_bank and BenchmarkTournament run.
func benchTournaments(t *testing.T) []*Tournament {
	t.Helper()
	std, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	fold, err := core.BuildExtended("bench", 200)
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(std).EvalModels()
	r := eval.Runner{Workers: -1}
	cal, err := NewCalibration(context.Background(), r, models, fold)
	if err != nil {
		t.Fatal(err)
	}
	trns := make([]*Tournament, 5)
	for i := range trns {
		trn, err := NewTournament(models, cal.Bank, Config{Seed: fmt.Sprintf("bench-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.EvaluateAdaptiveContext(context.Background(), models, trn); err != nil {
			t.Fatal(err)
		}
		trns[i] = trn
	}
	return trns
}

// TestSelectionWorkCount counts the classes selection visits and the
// ones it pays exp for. Over the five benchTournaments, the mean per
// issued item must stay at most maxInfoEvalsPerItem Information
// evaluations and maxVisitsPerItem visits. A bound that stays correct
// but stops pruning, or a live list that keeps exhausted classes,
// fails this without any timing.
func TestSelectionWorkCount(t *testing.T) {
	evals, visits, issued := 0, 0, 0
	for _, trn := range benchTournaments(t) {
		evals += trn.infoEvals
		visits += trn.visits
		issued += trn.QuestionsAsked()
	}
	perItem := float64(evals) / float64(issued)
	t.Logf("%d Information evaluations over %d issued items: %.2f per item", evals, issued, perItem)
	if perItem > maxInfoEvalsPerItem {
		t.Errorf("%.2f Information evaluations per issued item, want at most %d", perItem, maxInfoEvalsPerItem)
	}
	perItem = float64(visits) / float64(issued)
	t.Logf("%d classes visited over %d issued items: %.2f per item", visits, issued, perItem)
	if perItem > maxVisitsPerItem {
		t.Errorf("%.2f classes visited per issued item, want at most %d", perItem, maxVisitsPerItem)
	}
}
