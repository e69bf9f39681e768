// Mayors: the Figure 1 walk-through. The same information need — "cities
// whose current mayor has been in charge since 2019, with the mayor's
// birth date" — is answered two ways:
//
//  1. as a SQL query executed by Galois over the LLM (path (1) in
//     Figure 1), returning a typed relation, and
//  2. as a natural-language question to the same model (path (2)),
//     returning prose that must be parsed back into records.
//
// Run it to see why the relational path is easier to consume and compare.
//
//	go run ./examples/mayors
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/prompt"
	"repro/internal/qa"
	"repro/internal/simllm"
)

const figure1SQL = `SELECT c.name, m.birth_date
FROM city c, mayor m
WHERE c.mayor = m.name AND m.election_year = 2019`

const figure1NL = "List names of the cities and mayor birth date for the cities where the current mayor has been in charge since 2019."

func main() {
	runner, err := bench.NewRunner(1)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	// GPT-3's instruct profile keeps surface forms canonical, so the
	// Figure 1 join succeeds; swap in simllm.ChatGPT to watch the
	// surface-form mismatches of Section 5 empty it out.
	model := runner.Model(simllm.GPT3)

	// Path (1): SQL through Galois.
	rt, err := runner.Runtime(model, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sess := rt.NewSession()
	rel, rep, err := sess.Query(ctx, figure1SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(1) Galois executes the SQL query over the LLM:")
	fmt.Print(rel.String())
	fmt.Printf("(%d rows; %d prompts)\n\n", rel.Cardinality(), rep.Stats.Prompts)

	// Path (2): the NL question to the same model.
	truth, err := runner.GroundTruth(ctx, figure1SQL)
	if err != nil {
		log.Fatal(err)
	}
	res, err := qa.Ask(ctx, model, prompt.NewBuilder(), figure1NL, truth.Schema, clean.New(clean.DefaultOptions()), false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(2) the same model answers the NL question with text:")
	fmt.Println(res.Text)
	fmt.Printf("\nparsed back into a relation (%d rows):\n%s", res.Relation.Cardinality(), res.Relation.String())

	fmt.Printf("\nground truth has %d rows:\n%s", truth.Cardinality(), truth.String())
}
