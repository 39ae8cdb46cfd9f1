package main

import (
	_ "embed"
	"encoding/json"
)

// goldensJSON holds the outputs of the default seed at full size,
// recorded with -check. The table2 digest holds for every seed: that
// workload's inputs are the paper's fixed 142 questions.
//
//go:embed goldens.json
var goldensJSON []byte

var goldens = func() (g struct {
	Seed      string `json:"seed"`
	Table2    string `json:"table2_digest"`
	Stream16x string `json:"stream_16x_fold0_digest"`
	Adaptive  struct {
		Digest         string  `json:"tournament0_digest"`
		QuestionsAsked int     `json:"questions_asked"`
		RankAgreement  float64 `json:"rank_agreement"`
	} `json:"adaptive_bank"`
}) {
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic("benchmark: goldens.json: " + err.Error())
	}
	return g
}()
