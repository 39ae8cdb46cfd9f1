package chipvqa_test

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	chipvqa "repro"
	"repro/internal/dataset"
	"repro/internal/visual"
)

func TestSuiteEndToEnd(t *testing.T) {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	if suite.Benchmark.Len() != 142 || suite.ChallengeSet.Len() != 142 {
		t.Fatalf("benchmark sizes %d/%d", suite.Benchmark.Len(), suite.ChallengeSet.Len())
	}
	names := suite.ModelNames()
	if len(names) != 12 {
		t.Fatalf("%d models, want 12", len(names))
	}
	if _, err := suite.Model("not-a-model"); err == nil {
		t.Error("unknown model accepted")
	}
	rep, err := suite.Evaluate("GPT4o")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Pass1()-0.44) > 0.02 {
		t.Errorf("GPT4o pass@1 %.3f, want ~0.44", rep.Pass1())
	}
}

func TestSuiteTableII(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	with, without := suite.TableII()
	if len(with) != 12 || len(without) != 12 {
		t.Fatalf("report counts %d/%d", len(with), len(without))
	}
	out := chipvqa.FormatTableII(with, without)
	for _, name := range suite.ModelNames() {
		if !strings.Contains(out, name) {
			t.Errorf("table missing row for %s", name)
		}
	}
	// GPT-4o leads the with-choice column.
	best := ""
	bestVal := -1.0
	for _, r := range with {
		if r.Pass1() > bestVal {
			best, bestVal = r.ModelName, r.Pass1()
		}
	}
	if best != "GPT4o" {
		t.Errorf("best model %s, paper reports GPT-4o leading", best)
	}
}

func TestSuiteTableIII(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	vals, err := suite.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table III: 0.44 / 0.49 / 0.20 / 0.21.
	want := [4]float64{0.44, 0.49, 0.20, 0.21}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 0.02 {
			t.Errorf("Table III value %d: %.3f, want %.2f", i, vals[i], want[i])
		}
	}
}

func TestSuiteResolution(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	full, err := suite.EvaluateAtResolution("GPT4o", 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := suite.EvaluateAtResolution("GPT4o", 16)
	if err != nil {
		t.Fatal(err)
	}
	if small.Pass1() >= full.Pass1() {
		t.Errorf("16x (%.3f) should degrade vs 1x (%.3f)", small.Pass1(), full.Pass1())
	}
}

// TestTableIIDeterministicAcrossWorkers is the engine's equivalence
// guarantee: a serial run and a Workers=8 run of the full Table II sweep
// (12 models, both collections) must produce identical reports — same
// question order, same responses, same correctness, for every model.
func TestTableIIDeterministicAcrossWorkers(t *testing.T) {
	serial := chipvqa.MustNewSuite()
	serial.Workers = 1
	parallel := chipvqa.MustNewSuite()
	parallel.Workers = 8

	sWith, sWithout := serial.TableII()
	pWith, pWithout := parallel.TableII()
	compare := func(kind string, a, b []*chipvqa.Report) {
		t.Helper()
		if len(a) != 12 || len(b) != 12 {
			t.Fatalf("%s: report counts %d/%d, want 12", kind, len(a), len(b))
		}
		for mi := range a {
			if a[mi].ModelName != b[mi].ModelName {
				t.Fatalf("%s: model order differs at %d: %s vs %s",
					kind, mi, a[mi].ModelName, b[mi].ModelName)
			}
			if len(a[mi].Results) != len(b[mi].Results) {
				t.Fatalf("%s %s: result counts differ", kind, a[mi].ModelName)
			}
			for qi := range a[mi].Results {
				if a[mi].Results[qi] != b[mi].Results[qi] {
					t.Errorf("%s %s question %d: serial %+v != parallel %+v",
						kind, a[mi].ModelName, qi, a[mi].Results[qi], b[mi].Results[qi])
				}
			}
		}
	}
	compare("with-choice", sWith, pWith)
	compare("no-choice", sWithout, pWithout)
}

// The resolution path exercises the perception rng and the scene cache;
// it must be deterministic across worker counts too.
func TestResolutionDeterministicAcrossWorkers(t *testing.T) {
	serial := chipvqa.MustNewSuite()
	serial.Workers = 1
	parallel := chipvqa.MustNewSuite()
	parallel.Workers = 8
	a, err := serial.EvaluateAtResolution("GPT4o", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.EvaluateAtResolution("GPT4o", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
}

// TestRenderCacheObservability drives the facade's cache knob end to
// end: SetRenderCacheBudget configures the shared cache behind the
// daemon's image endpoint, and that cache's counters see the requests.
func TestRenderCacheObservability(t *testing.T) {
	visual.Default.Reset()
	chipvqa.SetRenderCacheBudget(1 << 20)
	t.Cleanup(func() {
		chipvqa.SetRenderCacheBudget(0)
		visual.Default.Reset()
	})
	suite := chipvqa.MustNewSuite()
	srv, err := suite.NewServer(chipvqa.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	url := "/v1/questions/" + suite.Benchmark.Questions[0].ID + "/image.png?factor=8"
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, rec.Code)
		}
	}
	st := visual.Default.Stats()
	if st.Budget != 1<<20 {
		t.Errorf("budget %d, want %d", st.Budget, 1<<20)
	}
	if st.Misses != 1 || st.Hits != 1 || st.Bytes == 0 {
		t.Errorf("two requests for one image: stats %+v, want 1 miss + 1 hit", st)
	}
}

func TestSuiteAgent(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	ag, err := suite.NewAgent("GPT4o")
	if err != nil {
		t.Fatal(err)
	}
	if ag.Name() == "" {
		t.Error("agent unnamed")
	}
	if _, err := suite.NewAgent("ghost"); err == nil {
		t.Error("unknown tool accepted")
	}
}

func TestSuiteStatsAndExport(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	out := suite.FormatTableI()
	for _, frag := range []string{"TABLE I", "142", "Digital Design", "schematic"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I missing %q", frag)
		}
	}
	var buf bytes.Buffer
	if err := suite.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 142 {
		t.Errorf("re-imported %d questions", back.Len())
	}
}

func TestRenderQuestion(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	q := suite.Benchmark.Questions[0]
	img := chipvqa.RenderQuestion(q, 1)
	if img.Bounds().Dx() < 100 {
		t.Errorf("render too small: %v", img.Bounds())
	}
	small := chipvqa.RenderQuestion(q, 8)
	if small.Bounds().Dx()*8 < img.Bounds().Dx() {
		t.Errorf("downsample dims wrong: %v vs %v", small.Bounds(), img.Bounds())
	}
}

func TestJudgeExposed(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	j := chipvqa.AnswerJudge{}
	q := suite.Benchmark.Questions[0]
	golden := dataset.ChoiceLetter(q.Golden.Choice)
	if !j.Correct(q, golden) {
		t.Error("exposed judge rejected golden letter")
	}
	strict := chipvqa.AnswerJudge{Strict: true}
	if !strict.Correct(q, golden) {
		t.Error("strict judge rejected golden letter")
	}
}

func TestSuiteChallengeAndExtendedFacade(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	rep, err := suite.EvaluateChallenge("GPT4o")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Pass1()-0.20) > 0.02 {
		t.Errorf("challenge pass@1 %.3f, want ~0.20", rep.Pass1())
	}
	ext, err := suite.Extended("facade", 4)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 4*5 {
		t.Errorf("extended size %d", ext.Len())
	}
	if _, err := suite.Extended("facade", 0); err == nil {
		t.Error("bad size accepted")
	}
}

func TestSuiteCompareFacade(t *testing.T) {
	suite := chipvqa.MustNewSuite()
	res, cis, err := suite.Compare("GPT4o", "kosmos-2")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.01) {
		t.Errorf("GPT-4o vs kosmos-2 should be wildly significant: %s", res)
	}
	if cis[0].Point <= cis[1].Point {
		t.Errorf("CI points ordered wrong: %v vs %v", cis[0], cis[1])
	}
	if _, _, err := suite.Compare("ghost", "GPT4o"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, _, err := suite.Compare("GPT4o", "ghost"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCategoriesFacade(t *testing.T) {
	got := chipvqa.Categories()
	want := dataset.Categories()
	if len(got) != len(want) || len(got) != 5 {
		t.Fatalf("Categories() returned %d categories, want 5", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Categories()[%d] = %v, want %v (canonical paper order)", i, got[i], want[i])
		}
	}
	if got[0] != chipvqa.Digital || got[4] != chipvqa.Physical {
		t.Errorf("canonical order must start with Digital and end with Physical: %v", got)
	}
}
