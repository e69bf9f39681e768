// Quickstart: run one SQL query against a simulated pre-trained LLM.
//
// The engine sees only the schema you bind and an llm.Client; tuples are
// retrieved from the model with automatically generated prompts.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/value"
	"repro/internal/world"
)

func main() {
	// The LLM: a simulated ChatGPT over the synthetic world. Swap in any
	// llm.Client implementation to target a real API.
	w := world.Build()
	model := simllm.New(simllm.ChatGPT, w, 1)

	// The engine: a shared runtime over the model, and a session to run
	// queries on. Bind the relation schema the query will use. No
	// instances are provided — only the schema and its key attribute
	// (Section 3 of the paper).
	rt := core.NewRuntime(model, core.DefaultOptions())
	sess := rt.NewSession()
	err := rt.BindLLMTable(&schema.TableDef{
		Name:      "country",
		KeyColumn: "name",
		Schema: schema.New(
			schema.Column{Name: "name", Type: value.KindString},
			schema.Column{Name: "capital", Type: value.KindString},
			schema.Column{Name: "independence_year", Type: value.KindInt},
		),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Execute a SQL query whose data lives entirely in the LLM.
	sql := `SELECT name, capital FROM country WHERE independence_year > 1950`
	rel, rep, err := sess.Query(context.Background(), sql)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(sql)
	fmt.Print(rel.String())
	fmt.Printf("(%d rows; %s)\n", rel.Cardinality(), rep.Stats.String())
}
