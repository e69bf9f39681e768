// Package token defines the lexical tokens of the SQL dialect Galois
// understands.
package token

import (
	"strings"
	"unicode/utf8"
)

// Type identifies the class of a token.
type Type uint8

// Token types.
const (
	Illegal Type = iota
	EOF

	Ident  // city, c.name (qualification handled by the parser)
	Number // 42, 3.14
	String // 'abc'

	// Operators and punctuation.
	Comma
	Dot
	Semicolon
	LParen
	RParen
	Star
	Plus
	Minus
	Slash
	Percent
	Eq
	NotEq // != or <>
	Lt
	LtEq
	Gt
	GtEq

	Keyword // SELECT, FROM, ...
)

var typeNames = map[Type]string{
	Illegal: "ILLEGAL", EOF: "EOF", Ident: "IDENT", Number: "NUMBER",
	String: "STRING", Comma: ",", Dot: ".", Semicolon: ";", LParen: "(",
	RParen: ")", Star: "*", Plus: "+", Minus: "-", Slash: "/", Percent: "%",
	Eq: "=", NotEq: "!=", Lt: "<", LtEq: "<=", Gt: ">", GtEq: ">=",
	Keyword: "KEYWORD",
}

// String returns a printable name for the token type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "UNKNOWN"
}

// Token is one lexical unit with its source position (byte offset).
type Token struct {
	Type    Type
	Literal string // raw text; for Keyword it is upper-cased
	Pos     int
}

// keywords is the reserved-word set, each word mapped to itself.
// Identifiers matching these (case insensitively) lex as Keyword tokens.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, w := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET
		AS AND OR NOT IN BETWEEN LIKE IS NULL DISTINCT JOIN INNER LEFT RIGHT
		OUTER CROSS ON ASC DESC TRUE FALSE CREATE TABLE PRIMARY KEY INSERT
		INTO VALUES EXPLAIN ANALYZE COUNT SUM AVG MIN MAX UNION ALL EXISTS
		CASE WHEN THEN ELSE END`) {
		m[w] = w
	}
	return m
}()

// IsKeyword reports whether the identifier text is reserved.
func IsKeyword(s string) bool {
	_, ok := LookupKeyword(s)
	return ok
}

// LookupKeyword returns the reserved word s spells case-insensitively,
// upper-cased, and whether s is one. An ASCII s is upper-cased in a
// stack buffer, so the lookup allocates nothing.
func LookupKeyword(s string) (string, bool) {
	var buf [16]byte
	ascii := true
	for i := 0; i < len(s) && ascii; i++ {
		ascii = s[i] < utf8.RuneSelf
	}
	if !ascii {
		up := strings.ToUpper(s)
		_, ok := keywords[up]
		return up, ok
	}
	if len(s) > len(buf) {
		return "", false
	}
	up := buf[:len(s)]
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up)]
	return kw, ok
}

// IsAggregateName reports whether the keyword names an aggregate function.
func IsAggregateName(s string) bool {
	switch strings.ToUpper(s) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
