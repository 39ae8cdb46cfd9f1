// Agentloop: the §IV-C agent study — a text-only designer model drives a
// vision tool through an interactive describe-and-reason loop. Prints
// two full transcripts and the Table III summary.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/agent"
	"repro/internal/eval"
	"repro/internal/vlm"
)

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}
	toolModel, err := suite.Model("GPT4o")
	if err != nil {
		log.Fatal(err)
	}
	tool := toolModel.(*vlm.SimulatedVLM)
	ag := agent.New(tool)

	// Show the interaction loop on two contrasting questions: one whose
	// visual verbalises well (a schematic) and one that does not (a
	// manufacturing figure).
	judge := eval.Judge{}
	for _, id := range []string{"d09", "m03"} {
		for _, q := range suite.Benchmark.Questions {
			if q.ID != id {
				continue
			}
			fmt.Printf("=== question %s (%s, visual: %s) ===\n", q.ID, q.Category, q.Visual.Kind)
			answer, transcript := ag.Run(q, eval.InferenceOptions{})
			fmt.Print(agent.FormatTranscript(transcript))
			fmt.Printf("designer final answer: %s\n", answer)
			fmt.Printf("judged correct: %v\n\n", judge.Correct(q, answer))
		}
	}

	vals, err := suite.TableIII(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TABLE III  Evaluation of Agent System on ChipVQA")
	fmt.Printf("  with choice: GPT4o %.2f -> Agent %.2f\n", vals[0], vals[1])
	fmt.Printf("  no choice:   GPT4o %.2f -> Agent %.2f\n", vals[2], vals[3])
}
