package lexer

import "testing"

// BenchmarkShape is one lexer pass that yields a typical ad-hoc
// statement's shape key and literal vector, as the shape memo's probe
// does for every statement the statement memo does not hold.
func BenchmarkShape(b *testing.B) {
	const sql = `SELECT a.name, b.population FROM city a, country b WHERE a.country = b.name AND b.population > 1234567.25`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Shape(sql); err != nil {
			b.Fatal(err)
		}
	}
}
