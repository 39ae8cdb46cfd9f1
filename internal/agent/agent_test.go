package agent

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/vlm"
)

func setup(t *testing.T) (*dataset.Benchmark, *dataset.Benchmark, *Agent, *vlm.SimulatedVLM) {
	t.Helper()
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	zoo := vlm.NewZoo(b)
	tool, ok := zoo.Model("GPT4o")
	if !ok {
		t.Fatal("GPT4o missing")
	}
	return b, b.Challenge(), New(tool), tool
}

// TestTableIII is the headline check for the agent study: the paper
// reports 0.44 -> 0.49 with choices and 0.20 -> 0.21 without.
func TestTableIII(t *testing.T) {
	b, chal, ag, tool := setup(t)
	r := eval.Runner{}
	baseStd := r.Evaluate(tool, b).Pass1()
	agentStd := r.Evaluate(ag, b).Pass1()
	baseChal := r.Evaluate(tool, chal).Pass1()
	agentChal := r.Evaluate(ag, chal).Pass1()

	if math.Abs(agentStd-0.49) > 0.02 {
		t.Errorf("agent with-choice %.3f, paper reports 0.49", agentStd)
	}
	if math.Abs(agentChal-0.21) > 0.02 {
		t.Errorf("agent no-choice %.3f, paper reports 0.21", agentChal)
	}
	if agentStd <= baseStd {
		t.Errorf("agent (%.3f) should beat direct GPT-4o (%.3f) with choices", agentStd, baseStd)
	}
	if agentChal < baseChal-0.01 {
		t.Errorf("agent no-choice %.3f fell below GPT-4o %.3f", agentChal, baseChal)
	}
}

func TestManufactureRegression(t *testing.T) {
	// §IV-C: "we observed a decrease in pass rates in certain scenarios,
	// particularly in the manufacturing category".
	_, chal, ag, tool := setup(t)
	r := eval.Runner{}
	baseChal := r.Evaluate(tool, chal).Pass1ByCategory()[dataset.Manufacture]
	agentChal := r.Evaluate(ag, chal).Pass1ByCategory()[dataset.Manufacture]
	if agentChal >= baseChal {
		t.Errorf("agent manufacture (no-choice) %.3f did not regress vs %.3f", agentChal, baseChal)
	}
}

func TestTranscriptShape(t *testing.T) {
	b, _, ag, _ := setup(t)
	q := b.Questions[0]
	answer, transcript := ag.Run(q, eval.InferenceOptions{})
	if answer == "" {
		t.Error("empty agent answer")
	}
	if len(transcript) < 1 || len(transcript) > ag.Cfg.MaxRounds {
		t.Errorf("transcript rounds %d outside [1, %d]", len(transcript), ag.Cfg.MaxRounds)
	}
	for _, call := range transcript {
		if call.Request == "" || call.Response == "" {
			t.Error("empty tool call")
		}
	}
	out := FormatTranscript(transcript)
	if !strings.Contains(out, "designer>") || !strings.Contains(out, "tool>") {
		t.Errorf("transcript format missing roles:\n%s", out)
	}
}

func TestAgentDeterministic(t *testing.T) {
	b, _, ag, _ := setup(t)
	for _, q := range b.Questions[:20] {
		a1 := ag.Answer(q, eval.InferenceOptions{})
		a2 := ag.Answer(q, eval.InferenceOptions{})
		if a1 != a2 {
			t.Fatalf("%s: agent answers differ: %q vs %q", q.ID, a1, a2)
		}
	}
}

func TestAgentName(t *testing.T) {
	_, _, ag, _ := setup(t)
	if !strings.Contains(ag.Name(), "GPT-4-Turbo") || !strings.Contains(ag.Name(), "GPT4o") {
		t.Errorf("name %q should identify designer and tool", ag.Name())
	}
	// The report sink asks for the name on every delivered event.
	if n := testing.AllocsPerRun(100, func() { _ = ag.Name() }); n != 0 {
		t.Errorf("Name allocates %v times per call, want 0", n)
	}
}

func TestDescriptionFidelityOrdering(t *testing.T) {
	// Photograph-like content must verbalise worse than schematic-like.
	b, _, _, _ := setup(t)
	var figureF, schematicF float64
	for _, q := range b.Questions {
		switch q.Visual.Kind.String() {
		case "figure":
			figureF = descriptionFidelity(q.Visual.Kind)
		case "schematic":
			schematicF = descriptionFidelity(q.Visual.Kind)
		}
	}
	if figureF >= schematicF {
		t.Errorf("figure fidelity %.2f should be below schematic %.2f", figureF, schematicF)
	}
}

func TestZeroBoostOnlyLoses(t *testing.T) {
	// With no designer boost the agent can only lose answers through
	// the lossy text relay.
	b, _, _, tool := setup(t)
	ag := New(tool)
	ag.Cfg.DesignerBoostMC = 0
	ag.Cfg.DesignerBoostSA = 0
	r := eval.Runner{}
	base := r.Evaluate(tool, b).Pass1()
	got := r.Evaluate(ag, b).Pass1()
	if got > base {
		t.Errorf("zero-boost agent %.3f beat its own tool %.3f", got, base)
	}
}
