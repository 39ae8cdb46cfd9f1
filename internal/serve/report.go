package serve

import (
	"encoding/json"

	"repro/internal/eval"
)

// Canonical report JSON: the single marshalling used by the /report
// endpoint and by the conformance suite's byte-identity assertions.
// Field order, number formatting and the trailing newline are part of
// the wire contract — an offline EvaluateAllContext run marshalled
// through MarshalReports must be byte-identical to the served body.

// ReportDoc is one model's wire-form report.
type ReportDoc struct {
	Model   string      `json:"model"`
	Pass1   float64     `json:"pass1"`
	Results []ResultDoc `json:"results"`
}

// ResultDoc is one (model, question) outcome in a ReportDoc.
type ResultDoc struct {
	QuestionID string `json:"question_id"`
	Category   string `json:"category"`
	Response   string `json:"response"`
	Correct    bool   `json:"correct"`
}

// reportsEnvelope is the top-level /report body.
type reportsEnvelope struct {
	Reports []ReportDoc `json:"reports"`
}

// MarshalReports renders reports in the canonical wire form.
func MarshalReports(reports []*eval.Report) ([]byte, error) {
	env := reportsEnvelope{Reports: make([]ReportDoc, len(reports))}
	for i, r := range reports {
		doc := ReportDoc{
			Model:   r.ModelName,
			Pass1:   r.Pass1(),
			Results: make([]ResultDoc, len(r.Results)),
		}
		for j, q := range r.Results {
			doc.Results[j] = ResultDoc{
				QuestionID: q.QuestionID,
				Category:   q.Category.Short(),
				Response:   q.Response,
				Correct:    q.Correct,
			}
		}
		env.Reports[i] = doc
	}
	body, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
