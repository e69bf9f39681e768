// Hybrid querying: one SQL script joins a relation stored in the LLM with
// a relation stored in a traditional DBMS — the introduction's motivating
// query:
//
//	SELECT c.gdp, AVG(e.salary)
//	FROM LLM.country c, DB.Employees e
//	WHERE c.code = e.countryCode
//	GROUP BY e.countryCode
//
// The country relation is materialized from the model with prompts; the
// Employees table lives in the in-memory DBMS. This example also shows the
// surface-form pitfall (alpha-2 vs alpha-3 country codes) and the
// canonicalization fix.
//
//	go run ./examples/hybrid
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/simllm"
)

const hybridSQL = `SELECT c.gdp, AVG(e.salary)
FROM LLM.country c, DB.Employees e
WHERE c.code = e.countryCode
GROUP BY e.countryCode`

func main() {
	runner, err := bench.NewRunner(1)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// First attempt: raw surface forms. The model mixes alpha-2 and
	// alpha-3 codes ("IT" vs "ITA"), so part of the join silently fails —
	// the exact failure Section 5 reports.
	model := runner.Model(simllm.ChatGPT)
	rt, err := runner.Runtime(model, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sess := rt.NewSession()
	rel, rep, err := sess.Query(ctx, hybridSQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hybrid query (raw surface forms):")
	fmt.Print(rel.String())
	fmt.Printf("(%d rows; %d prompts)\n\n", rel.Cardinality(), rep.Stats.Prompts)

	// Second attempt: canonicalize entity codes during cleaning
	// (Ablation C). The join recovers.
	opts := core.DefaultOptions()
	opts.Clean.Canonicalizer = clean.NewCanonicalizer(runner.World.Aliases())
	rt2, err := runner.Runtime(model, opts)
	if err != nil {
		log.Fatal(err)
	}
	sess2 := rt2.NewSession()
	rel2, _, err := sess2.Query(ctx, hybridSQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hybrid query (canonicalized codes):")
	fmt.Print(rel2.String())
	fmt.Printf("(%d rows)\n\n", rel2.Cardinality())

	// Ground truth for comparison: the same query with both relations in
	// the DBMS.
	truth, err := runner.GroundTruth(ctx, `SELECT c.gdp, AVG(e.salary) FROM country c, Employees e WHERE c.code = e.countryCode GROUP BY e.countryCode`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ground truth (both relations in the DBMS):")
	fmt.Print(truth.String())
	fmt.Printf("(%d rows)\n", truth.Cardinality())
}
