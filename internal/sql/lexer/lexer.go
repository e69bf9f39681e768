// Package lexer tokenizes SQL text for the Galois parser.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/sql/token"
)

// Lexer scans SQL text into tokens. It reads the source's bytes in place:
// an identifier's, a number's and (without escapes) a string's literal is
// a substring of the source. A token's Pos is its offset in runes, the
// offset parse errors print. It is not safe for concurrent use.
type Lexer struct {
	src  string
	pos  int // byte offset of the next rune to read
	rpos int // its offset in runes
}

// New returns a lexer over the given SQL text.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the whole input and returns the token stream, ending with
// an EOF token. It returns an error for unterminated strings or stray
// characters.
func Tokenize(src string) ([]token.Token, error) {
	l := New(src)
	out := make([]token.Token, 0, len(src)/4+2)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Type == token.EOF {
			return out, nil
		}
	}
}

// runeAt decodes the rune at byte offset i and its width; 0 at the end of
// the source. A NUL byte reads as 0 too, so it ends the statement, and an
// invalid byte reads as utf8.RuneError of width 1.
func (l *Lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// peek2 returns the rune after the next one.
func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + w)
	return r
}

// skip advances past the next rune.
func (l *Lexer) skip() {
	if l.pos < len(l.src) && l.src[l.pos] < utf8.RuneSelf {
		l.pos++
	} else {
		_, w := l.runeAt(l.pos)
		l.pos += w
	}
	l.rpos++
}

// skipASCII advances past the run of ASCII bytes in is, the rune test's
// ASCII half; a non-ASCII rune ends it, for the rune test to read.
func (l *Lexer) skipASCII(is *[utf8.RuneSelf]bool) {
	i := l.pos
	for i < len(l.src) && l.src[i] < utf8.RuneSelf && is[l.src[i]] {
		i++
	}
	l.rpos += i - l.pos
	l.pos = i
}

// asciiSpace, asciiIdent and asciiDigit are unicode.IsSpace,
// isIdentPart and unicode.IsDigit on ASCII.
var asciiSpace, asciiIdent, asciiDigit = func() (sp, id, dg [utf8.RuneSelf]bool) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		sp[c], id[c], dg[c] = unicode.IsSpace(c), isIdentPart(c), unicode.IsDigit(c)
	}
	return
}()

func (l *Lexer) skipSpaceAndComments() {
	for {
		l.skipASCII(&asciiSpace)
		for unicode.IsSpace(l.peek()) {
			l.skip()
		}
		// -- line comments
		if l.peek() == '-' && l.peek2() == '-' {
			for l.peek() != '\n' && l.peek() != 0 {
				l.skip()
			}
			continue
		}
		// /* block comments */
		if l.peek() == '/' && l.peek2() == '*' {
			l.skip()
			l.skip()
			for !(l.peek() == '*' && l.peek2() == '/') && l.peek() != 0 {
				l.skip()
			}
			if l.peek() != 0 {
				l.skip()
				l.skip()
			}
			continue
		}
		return
	}
}

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	l.skipSpaceAndComments()
	start, rstart := l.pos, l.rpos
	r := l.peek()
	switch {
	case r == 0:
		return token.Token{Type: token.EOF, Pos: rstart}, nil
	case isIdentStart(r):
		return l.lexIdent(start, rstart), nil
	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.peek2())):
		return l.lexNumber(start, rstart), nil
	case r == '\'':
		return l.lexQuoted(rstart, '\'', token.String, "string literal")
	case r == '"' || r == '`':
		return l.lexQuoted(rstart, r, token.Ident, "quoted identifier")
	}
	l.skip()
	mk := func(t token.Type, lit string) (token.Token, error) {
		return token.Token{Type: t, Literal: lit, Pos: rstart}, nil
	}
	switch r {
	case ',':
		return mk(token.Comma, ",")
	case '.':
		return mk(token.Dot, ".")
	case ';':
		return mk(token.Semicolon, ";")
	case '(':
		return mk(token.LParen, "(")
	case ')':
		return mk(token.RParen, ")")
	case '*':
		return mk(token.Star, "*")
	case '+':
		return mk(token.Plus, "+")
	case '-':
		return mk(token.Minus, "-")
	case '/':
		return mk(token.Slash, "/")
	case '%':
		return mk(token.Percent, "%")
	case '=':
		return mk(token.Eq, "=")
	case '!':
		if l.peek() == '=' {
			l.skip()
			return mk(token.NotEq, "!=")
		}
		return token.Token{Type: token.Illegal, Literal: "!", Pos: rstart},
			fmt.Errorf("sql: unexpected character %q at offset %d", r, rstart)
	case '<':
		switch l.peek() {
		case '=':
			l.skip()
			return mk(token.LtEq, "<=")
		case '>':
			l.skip()
			return mk(token.NotEq, "<>")
		}
		return mk(token.Lt, "<")
	case '>':
		if l.peek() == '=' {
			l.skip()
			return mk(token.GtEq, ">=")
		}
		return mk(token.Gt, ">")
	}
	return token.Token{Type: token.Illegal, Literal: string(r), Pos: rstart},
		fmt.Errorf("sql: unexpected character %q at offset %d", r, rstart)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) lexIdent(start, rstart int) token.Token {
	for l.skipASCII(&asciiIdent); isIdentPart(l.peek()); l.skipASCII(&asciiIdent) {
		l.skip()
	}
	lit := l.src[start:l.pos]
	if kw, ok := token.LookupKeyword(lit); ok {
		return token.Token{Type: token.Keyword, Literal: kw, Pos: rstart}
	}
	return token.Token{Type: token.Ident, Literal: lit, Pos: rstart}
}

func (l *Lexer) lexNumber(start, rstart int) token.Token {
	seenDot := false
	for {
		l.skipASCII(&asciiDigit)
		r := l.peek()
		if unicode.IsDigit(r) {
			l.skip()
			continue
		}
		if r == '.' && !seenDot && unicode.IsDigit(l.peek2()) {
			seenDot = true
			l.skip()
			continue
		}
		break
	}
	// Exponent part: 1e9, 2.5E-3.
	if r := l.peek(); r == 'e' || r == 'E' {
		save, rsave := l.pos, l.rpos
		l.skip()
		if l.peek() == '+' || l.peek() == '-' {
			l.skip()
		}
		if unicode.IsDigit(l.peek()) {
			for unicode.IsDigit(l.peek()) {
				l.skip()
			}
		} else {
			l.pos, l.rpos = save, rsave
		}
	}
	return token.Token{Type: token.Number, Literal: l.src[start:l.pos], Pos: rstart}
}

// lexQuoted scans a quoted token of type tt: a string literal, whose
// doubled quote escapes one, or a quoted identifier. Its literal is the
// text between the quotes: a substring of the source until an escape or
// an invalid byte (read as U+FFFD) makes it differ, then built rune by
// rune.
func (l *Lexer) lexQuoted(rstart int, quote rune, tt token.Type, what string) (token.Token, error) {
	l.skip() // opening quote
	start := l.pos
	var b *strings.Builder // nil while the literal is a substring
	for {
		r, w := l.runeAt(l.pos)
		if r == 0 {
			return token.Token{Type: token.Illegal, Pos: rstart},
				fmt.Errorf("sql: unterminated %s at offset %d", what, rstart)
		}
		escaped := r == quote && tt == token.String && l.peek2() == quote
		if r == quote && !escaped {
			lit := l.src[start:l.pos]
			if b != nil {
				lit = b.String()
			}
			l.skip()
			return token.Token{Type: tt, Literal: lit, Pos: rstart}, nil
		}
		if b == nil && (escaped || r == utf8.RuneError && w == 1) {
			b = &strings.Builder{}
			b.WriteString(l.src[start:l.pos])
		}
		if b != nil {
			b.WriteRune(r)
		}
		l.skip()
		if escaped {
			l.skip()
		}
	}
}

// Literal is one number or string literal of a statement's shape: the
// token's literal (a number's digits, a string's content) and whether a
// unary minus was folded into it, as the parser folds one.
type Literal struct {
	Type token.Type // token.Number or token.String
	Text string
	Neg  bool
}

// Shape scans src once and returns its shape key and literal vector. The
// key is the token stream with every number and string literal masked by
// the kind the parser gives it — 'i' for an integer, 'f' for a number
// whose text holds '.', 'e' or 'E', 's' for a string — so two statements
// share a key exactly when their token streams differ only in those
// literals. The literals come out in source order. A unary minus directly
// before a number is folded into it (Literal.Neg), as the parser folds
// it, so `x > -5` and `x > 5` share a key. A LIMIT or OFFSET count is no
// literal: it stays in the key, since it changes the plan. It fails where
// Tokenize fails.
func Shape(src string) (string, []Literal, error) {
	l := &Lexer{src: src}
	var key strings.Builder
	key.Grow(len(src))
	lits := make([]Literal, 0, 4)
	prev := token.Token{Type: token.EOF}
	neg := false // a unary minus precedes the next token
	for {
		t, err := l.Next()
		if err != nil {
			return "", nil, err
		}
		if neg && t.Type != token.Number {
			key.WriteByte(byte(token.Minus))
			neg = false
		}
		switch {
		case t.Type == token.EOF:
			return key.String(), lits, nil
		case t.Type == token.Minus && !endsOperand(prev):
			neg = true
			prev = t
			continue
		case t.Type == token.Number && prev.Type == token.Keyword && (prev.Literal == "LIMIT" || prev.Literal == "OFFSET"):
			word(&key, t)
		case t.Type == token.Number || t.Type == token.String:
			kind := byte('s')
			if t.Type == token.Number {
				kind = 'i'
				if strings.ContainsAny(t.Literal, ".eE") {
					kind = 'f'
				}
			}
			key.WriteByte(kind)
			lits = append(lits, Literal{Type: t.Type, Text: t.Literal, Neg: neg})
		case t.Type == token.Ident || t.Type == token.Keyword:
			word(&key, t)
		default:
			key.WriteByte(byte(t.Type))
		}
		neg = false
		prev = t
	}
}

// word writes a token whose text is part of a shape key: its type, its
// literal and a NUL, which no identifier, keyword or number holds (the
// lexer reads a NUL as the end of the source).
func word(key *strings.Builder, t token.Token) {
	key.WriteByte(byte(t.Type))
	key.WriteString(t.Literal)
	key.WriteByte(0)
}

// endsOperand reports whether a minus after t is binary: t ends an
// operand (a name, a literal, a closing parenthesis, NULL, TRUE, FALSE
// or a CASE's END). After anything else — the start, an operator, a
// comma, an opening parenthesis, another keyword — the minus is unary.
func endsOperand(t token.Token) bool {
	switch t.Type {
	case token.Ident, token.Number, token.String, token.RParen:
		return true
	case token.Keyword:
		switch t.Literal {
		case "NULL", "TRUE", "FALSE", "END":
			return true
		}
	}
	return false
}
