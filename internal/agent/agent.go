// Package agent implements the §IV-C agent study: a text-only "chip
// designer" model (GPT-4-Turbo in the paper) that cannot see the image
// and instead interrogates a vision tool (GPT-4o) which describes the
// visual content in text. The designer's stronger text reasoning wins
// questions the direct VLM missed, but description-lossy visual kinds
// (photograph-like figures and structures — common in the Manufacture
// category) lose information in the text relay, reproducing both Table
// III's overall gain and its Manufacture regression.
package agent

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// ToolCall is one round of the designer-tool conversation.
type ToolCall struct {
	Request  string
	Response string
}

// Config tunes the agent mechanism; Default() is calibrated so the
// overall Pass@1 matches Table III.
type Config struct {
	// DesignerBoostMC/SA is the probability that the designer's stronger
	// text reasoning solves a question the direct VLM missed, given a
	// faithful tool description (with and without answer options).
	DesignerBoostMC float64
	DesignerBoostSA float64
	// MaxRounds bounds the designer-tool interaction loop.
	MaxRounds int
}

// Default returns the calibrated configuration.
func Default() Config {
	return Config{DesignerBoostMC: 0.21, DesignerBoostSA: 0.04, MaxRounds: 3}
}

// descriptionFidelity is the probability that the vision tool's text
// description preserves every detail the question needs, per visual
// kind. Schematic-like content verbalises well; photograph-like content
// (figures, structures) does not — the mechanism behind the paper's
// observed Manufacture regression.
func descriptionFidelity(k visual.Kind) float64 {
	switch k {
	case visual.KindFigure:
		return 0.50
	case visual.KindStructure:
		return 0.60
	case visual.KindMixed:
		return 0.70
	case visual.KindCurve:
		return 0.80
	case visual.KindLayout:
		return 0.85
	default:
		return 0.97
	}
}

// Agent is the designer+tool system; it implements eval.Model so the
// standard runner produces Table III.
type Agent struct {
	Tool *vlm.SimulatedVLM
	Cfg  Config
	// name names the designer and the tool. New builds it once: the
	// report sink asks for it on every delivered event.
	name string
}

var _ eval.Model = (*Agent)(nil)

// New builds the paper's configuration: a GPT-4-Turbo designer using the
// given vision tool (GPT-4o in the paper).
func New(tool *vlm.SimulatedVLM) *Agent {
	return &Agent{Tool: tool, Cfg: Default(), name: "Agent(GPT-4-Turbo+" + tool.Name() + ")"}
}

// Name implements eval.Model.
func (a *Agent) Name() string { return a.name }

// Answer implements eval.Model by running the designer-tool loop.
func (a *Agent) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	answer, _ := a.Run(q, opts)
	return answer
}

// Run executes the interaction loop and returns the final answer plus
// the tool-call transcript — the paper's "interactive process repeats
// until the chip designer arrives at an answer".
func (a *Agent) Run(q *dataset.Question, opts eval.InferenceOptions) (string, []ToolCall) {
	var transcript []ToolCall

	// Round 1: the designer always asks for an overall description.
	faithful := rng.Bernoulli(a.fidelity(q), "agent", q.ID, "describe", fmt.Sprint(q.Type))
	desc := a.describe(q, 0.8)
	transcript = append(transcript, ToolCall{
		Request:  "Describe the figure attached to this question.",
		Response: desc,
	})

	// Further rounds: the designer drills into critical details; a
	// faithful tool run resolves them, an unfaithful one keeps missing
	// the load-bearing annotation no matter how it is asked.
	rounds := 1 + rng.Pick(a.Cfg.MaxRounds, "agent", q.ID, "rounds")
	for r := 1; r < rounds; r++ {
		req := "Read out the annotated values and labels relevant to the question."
		resp := a.describe(q, 0.95)
		if !faithful {
			resp = "The annotations are not clearly identifiable in the image."
		}
		transcript = append(transcript, ToolCall{Request: req, Response: resp})
	}

	// The direct VLM's outcome on this question anchors the decision.
	baseCorrect := eval.Judge{}.Correct(q, a.Tool.Answer(q, opts))

	switch {
	case baseCorrect && !faithful:
		// The tool could have answered directly, but the designer only
		// sees the lossy description and goes wrong.
		return a.wrongAnswer(q), transcript
	case baseCorrect:
		return a.goldenAnswer(q), transcript
	case !faithful:
		return a.wrongAnswer(q), transcript
	default:
		// Faithful description of a question the direct VLM missed: the
		// designer's stronger text-side reasoning sometimes recovers it —
		// but only for content that verbalises losslessly (schematics,
		// tables, equations); reading exact quantities out of
		// photograph-like figures through a text relay does not recover
		// questions the VLM itself could not do.
		if a.fidelity(q) < 0.9 {
			return a.wrongAnswer(q), transcript
		}
		boost := a.Cfg.DesignerBoostSA
		if q.Type == dataset.MultipleChoice {
			boost = a.Cfg.DesignerBoostMC
		}
		if rng.Bernoulli(boost, "agent", q.ID, "boost", fmt.Sprint(q.Type)) {
			return a.goldenAnswer(q), transcript
		}
		return a.wrongAnswer(q), transcript
	}
}

func (a *Agent) fidelity(q *dataset.Question) float64 {
	if q.Visual == nil {
		return 1
	}
	return descriptionFidelity(q.Visual.Kind)
}

func (a *Agent) describe(q *dataset.Question, detail float64) string {
	if q.Visual == nil {
		return "No figure is attached."
	}
	d := q.Visual.Describe(detail)
	// Clip very long scene dumps the way a chat tool response would.
	if len(d) > 1200 {
		d = d[:1200] + " ..."
	}
	return d
}

func (a *Agent) goldenAnswer(q *dataset.Question) string {
	if q.Type == dataset.MultipleChoice {
		return fmt.Sprintf("%s) %s", dataset.ChoiceLetter(q.Golden.Choice), q.Choices[q.Golden.Choice])
	}
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		if q.Golden.Text != "" {
			return q.Golden.Text
		}
		return fmt.Sprintf("%g %s", q.Golden.Number, q.Golden.Unit)
	default:
		return q.Golden.Text
	}
}

func (a *Agent) wrongAnswer(q *dataset.Question) string {
	if q.Type == dataset.MultipleChoice {
		off := 1 + rng.Pick(3, "agent", q.ID, "wrong")
		return dataset.ChoiceLetter((q.Golden.Choice + off) % 4)
	}
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		return fmt.Sprintf("%g %s", q.Golden.Number*2.9+1, q.Golden.Unit)
	case dataset.AnswerExpression:
		return "F = A'B + C"
	default:
		return "based on the description, a conventional structure of this type"
	}
}

// FormatTranscript renders a transcript for display.
func FormatTranscript(calls []ToolCall) string {
	var sb strings.Builder
	for i, c := range calls {
		sb.WriteString(fmt.Sprintf("round %d designer> %s\n", i+1, c.Request))
		sb.WriteString(fmt.Sprintf("round %d tool>     %s\n", i+1, firstLine(c.Response)))
	}
	return sb.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
