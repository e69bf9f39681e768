package parser

import "testing"

// BenchmarkParse parses a typical ad-hoc statement: the front end's cost
// for a statement neither memo holds.
func BenchmarkParse(b *testing.B) {
	const sql = `SELECT a.name, b.population FROM city a, country b WHERE a.country = b.name AND b.population > 1234567.25`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
