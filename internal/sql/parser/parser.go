// Package parser implements a recursive-descent parser for the SQL dialect
// Galois executes: SELECT with projections, expressions and aggregates,
// multi-table FROM (comma and ANSI joins), WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT/OFFSET, plus CREATE TABLE and INSERT for loading the
// ground-truth store.
//
// FROM items may carry a source qualifier — "LLM.country c" or
// "DB.Employees e" — selecting which engine materializes the relation, as
// in the paper's hybrid query example.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
	"repro/internal/sql/token"
	"repro/internal/value"
)

// Parser consumes a token stream.
type Parser struct {
	toks []token.Token
	pos  int
	// lits, when recording, holds the literal of every number and string
	// token consumed as an expression, in token order, and at the index
	// of its token in toks (-1 once a minus was folded into it).
	lits      []*ast.Literal
	litAt     []int
	recording bool
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (ast.Statement, error) {
	stmt, _, err := parse(src, false)
	return stmt, err
}

// ParseLiterals is Parse that also returns, index for index with
// lexer.Shape's literal vector, the ast.Literal each number and string
// literal became: after a unary minus directly before it was folded into
// it, the folded node. An entry is nil where the parser folded a minus
// that lexer.Shape does not (through parentheses, or a second one). A
// LIMIT or OFFSET count is no literal of either.
func ParseLiterals(src string) (ast.Statement, []*ast.Literal, error) {
	return parse(src, true)
}

func parse(src string, record bool) (ast.Statement, []*ast.Literal, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, nil, err
	}
	p := &Parser{toks: toks, recording: record}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, nil, err
	}
	p.accept(token.Semicolon, "")
	if !p.at(token.EOF, "") {
		return nil, nil, p.errorf("unexpected trailing input %q", p.cur().Literal)
	}
	return stmt, p.lits, nil
}

// Value returns the value the parser gives lit (a lexer.Shape literal),
// and false where parsing it fails (an integer out of range, a float
// that overflows).
func Value(lit lexer.Literal) (value.Value, bool) {
	if lit.Type == token.String {
		return value.Text(lit.Text), true
	}
	v, ok := number(lit.Text)
	if ok && lit.Neg {
		v = negate(v)
	}
	return v, ok
}

// number parses a number token's text: a FLOAT when it holds '.', 'e' or
// 'E', else an INTEGER.
func number(text string) (value.Value, bool) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		return value.Float(f), err == nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	return value.Int(i), err == nil
}

// negate is a folded unary minus.
func negate(v value.Value) value.Value {
	if v.Kind() == value.KindInt {
		return value.Int(-v.AsInt())
	}
	return value.Float(-v.AsFloat())
}

// ParseSelect parses src and requires it to be a SELECT statement.
func ParseSelect(src string) (*ast.Select, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT statement")
	}
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var stmts []ast.Statement
	for {
		for p.accept(token.Semicolon, "") {
		}
		if p.at(token.EOF, "") {
			return stmts, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.accept(token.Semicolon, "") && !p.at(token.EOF, "") {
			return nil, p.errorf("expected ';' between statements, got %q", p.cur().Literal)
		}
	}
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Type != token.EOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches type (and literal for
// keywords).
func (p *Parser) at(tt token.Type, lit string) bool {
	t := p.cur()
	if t.Type != tt {
		return false
	}
	return lit == "" || t.Literal == lit
}

func (p *Parser) atKeyword(words ...string) bool {
	t := p.cur()
	if t.Type != token.Keyword {
		return false
	}
	for _, w := range words {
		if t.Literal == w {
			return true
		}
	}
	return false
}

func (p *Parser) accept(tt token.Type, lit string) bool {
	if p.at(tt, lit) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(word string) bool {
	if p.atKeyword(word) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(tt token.Type, lit string) (token.Token, error) {
	if p.at(tt, lit) {
		return p.next(), nil
	}
	want := lit
	if want == "" {
		want = tt.String()
	}
	return token.Token{}, p.errorf("expected %s, got %q", want, p.cur().Literal)
}

func (p *Parser) expectKeyword(word string) error {
	if p.acceptKeyword(word) {
		return nil
	}
	return p.errorf("expected %s, got %q", word, p.cur().Literal)
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) parseStatement() (ast.Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("EXPLAIN"):
		return p.parseExplain()
	case p.atKeyword("CREATE"):
		return p.parseCreateTable()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	default:
		return nil, p.errorf("expected SELECT, EXPLAIN, CREATE or INSERT, got %q", p.cur().Literal)
	}
}

func (p *Parser) parseExplain() (ast.Statement, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.acceptKeyword("ANALYZE")
	if !p.atKeyword("SELECT") {
		return nil, p.errorf("EXPLAIN supports only SELECT statements, got %q", p.cur().Literal)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ast.Explain{Analyze: analyze, Stmt: sel}, nil
}

// ---------------------------------------------------------------- SELECT

func (p *Parser) parseSelect() (*ast.Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	if p.acceptKeyword("ALL") {
		sel.Distinct = false
	}

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(token.Comma, "") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}

	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(token.Comma, "") {
				break
			}
		}
	}

	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}

	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(token.Comma, "") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	return sel, nil
}

func (p *Parser) parseIntLiteral() (int, error) {
	t, err := p.expect(token.Number, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.Literal)
	if err != nil {
		return 0, p.errorf("expected integer, got %q", t.Literal)
	}
	return n, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	// Bare * and t.* handled here; the expression grammar treats * as
	// multiplication.
	if p.accept(token.Star, "") {
		return ast.SelectItem{Expr: &ast.Star{}}, nil
	}
	if p.at(token.Ident, "") && p.toks[p.pos+1].Type == token.Dot && p.toks[p.pos+2].Type == token.Star {
		tbl := p.next().Literal
		p.next() // .
		p.next() // *
		return ast.SelectItem{Expr: &ast.Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t, err := p.expect(token.Ident, "")
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = t.Literal
	} else if p.at(token.Ident, "") {
		item.Alias = p.next().Literal
	}
	return item, nil
}

func (p *Parser) parseFrom() ([]ast.TableRef, error) {
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs := []ast.TableRef{first}
	for {
		switch {
		case p.accept(token.Comma, ""):
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			r.Join = ast.JoinCross
			refs = append(refs, r)
		case p.atKeyword("JOIN", "INNER", "LEFT", "CROSS"):
			jt := ast.JoinInner
			switch p.cur().Literal {
			case "LEFT":
				p.next()
				p.acceptKeyword("OUTER")
				jt = ast.JoinLeft
			case "CROSS":
				p.next()
				jt = ast.JoinCross
			case "INNER":
				p.next()
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			r.Join = jt
			if jt != ast.JoinCross {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				r.On = on
			}
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *Parser) parseTableRef() (ast.TableRef, error) {
	t, err := p.expect(token.Ident, "")
	if err != nil {
		return ast.TableRef{}, err
	}
	ref := ast.TableRef{Table: t.Literal}
	// Source qualifier: LLM.country / DB.Employees.
	if up := strings.ToUpper(t.Literal); (up == "LLM" || up == "DB") && p.at(token.Dot, "") {
		p.next()
		name, err := p.expect(token.Ident, "")
		if err != nil {
			return ast.TableRef{}, err
		}
		ref.Source = up
		ref.Table = name.Literal
	}
	if p.acceptKeyword("AS") {
		a, err := p.expect(token.Ident, "")
		if err != nil {
			return ast.TableRef{}, err
		}
		ref.Alias = a.Literal
	} else if p.at(token.Ident, "") {
		ref.Alias = p.next().Literal
	}
	return ref, nil
}

// ------------------------------------------------------------ expressions

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(token.Eq, ""), p.at(token.NotEq, ""), p.at(token.Lt, ""),
			p.at(token.LtEq, ""), p.at(token.Gt, ""), p.at(token.GtEq, ""):
			opTok := p.next()
			op := opTok.Literal
			if opTok.Type == token.NotEq {
				op = "!="
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: op, Left: left, Right: right}
		case p.atKeyword("IS"):
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &ast.IsNull{Expr: left, Not: not}
		case p.atKeyword("IN"):
			p.next()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			left = &ast.InList{Expr: left, List: list}
		case p.atKeyword("BETWEEN"):
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Between{Expr: left, Lo: lo, Hi: hi}
		case p.atKeyword("LIKE"):
			p.next()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Like{Expr: left, Pattern: pat}
		case p.atKeyword("NOT"):
			// NOT IN / NOT BETWEEN / NOT LIKE (postfix forms).
			save := p.pos
			p.next()
			switch {
			case p.acceptKeyword("IN"):
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				left = &ast.InList{Expr: left, List: list, Not: true}
			case p.acceptKeyword("BETWEEN"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &ast.Between{Expr: left, Lo: lo, Hi: hi, Not: true}
			case p.acceptKeyword("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &ast.Like{Expr: left, Pattern: pat, Not: true}
			default:
				p.pos = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseExprList() ([]ast.Expr, error) {
	if _, err := p.expect(token.LParen, ""); err != nil {
		return nil, err
	}
	var list []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(token.Comma, "") {
			break
		}
	}
	if _, err := p.expect(token.RParen, ""); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(token.Plus, ""):
			op = "+"
		case p.accept(token.Minus, ""):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(token.Star, ""):
			op = "*"
		case p.accept(token.Slash, ""):
			op = "/"
		case p.accept(token.Percent, ""):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if minus := p.pos; p.accept(token.Minus, "") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal immediately so constants stay simple.
		if lit, ok := e.(*ast.Literal); ok {
			if k := lit.Val.Kind(); k == value.KindInt || k == value.KindFloat {
				folded := &ast.Literal{Val: negate(lit.Val)}
				if n := len(p.lits); n > 0 && p.lits[n-1] == lit {
					if p.litAt[n-1] == minus+1 {
						p.lits[n-1], p.litAt[n-1] = folded, -1
					} else {
						p.lits[n-1] = nil
					}
				}
				return folded, nil
			}
		}
		return &ast.Unary{Op: "-", Expr: e}, nil
	}
	p.accept(token.Plus, "")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Type {
	case token.Number:
		p.next()
		v, ok := number(t.Literal)
		if !ok {
			return nil, p.errorf("bad number %q", t.Literal)
		}
		return p.literal(v), nil
	case token.String:
		p.next()
		return p.literal(value.Text(t.Literal)), nil
	case token.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, ""); err != nil {
			return nil, err
		}
		return e, nil
	case token.Keyword:
		switch t.Literal {
		case "NULL":
			p.next()
			return &ast.Literal{Val: value.Null()}, nil
		case "TRUE":
			p.next()
			return &ast.Literal{Val: value.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &ast.Literal{Val: value.Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall(t.Literal)
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Literal)
	case token.Ident:
		// Function call or column reference.
		if p.toks[p.pos+1].Type == token.LParen {
			name := strings.ToUpper(p.next().Literal)
			return p.parseFuncCall(name)
		}
		p.next()
		ref := &ast.ColumnRef{Name: t.Literal}
		if p.accept(token.Dot, "") {
			n, err := p.expect(token.Ident, "")
			if err != nil {
				return nil, err
			}
			ref.Table = t.Literal
			ref.Name = n.Literal
		}
		return ref, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.Literal)
}

// literal returns the literal of the number or string token just
// consumed, recording it.
func (p *Parser) literal(v value.Value) *ast.Literal {
	lit := &ast.Literal{Val: v}
	if p.recording {
		p.lits = append(p.lits, lit)
		p.litAt = append(p.litAt, p.pos-1)
	}
	return lit
}

func (p *Parser) parseFuncCall(name string) (ast.Expr, error) {
	if p.cur().Type == token.Keyword {
		p.next() // consume the aggregate keyword
	}
	if _, err := p.expect(token.LParen, ""); err != nil {
		return nil, err
	}
	call := &ast.FuncCall{Name: strings.ToUpper(name)}
	if p.accept(token.Star, "") {
		call.Args = []ast.Expr{&ast.Star{}}
	} else if !p.at(token.RParen, "") {
		call.Distinct = p.acceptKeyword("DISTINCT")
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.accept(token.Comma, "") {
				break
			}
		}
	}
	if _, err := p.expect(token.RParen, ""); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &ast.Case{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// ------------------------------------------------------------ CREATE/INSERT

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(token.Ident, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen, ""); err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{Name: name.Literal}
	for {
		col, err := p.expect(token.Ident, "")
		if err != nil {
			return nil, err
		}
		var typeName string
		switch {
		case p.at(token.Ident, ""):
			typeName = p.next().Literal
		case p.at(token.Keyword, ""):
			typeName = p.next().Literal
		default:
			return nil, p.errorf("expected type for column %q", col.Literal)
		}
		kind, err := value.ParseKind(typeName)
		if err != nil {
			return nil, p.errorf("column %q: %v", col.Literal, err)
		}
		def := ast.ColumnDef{Name: col.Literal, Type: kind}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		ct.Columns = append(ct.Columns, def)
		if !p.accept(token.Comma, "") {
			break
		}
	}
	if _, err := p.expect(token.RParen, ""); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(token.Ident, "")
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name.Literal}
	if p.accept(token.LParen, "") {
		for {
			c, err := p.expect(token.Ident, "")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c.Literal)
			if !p.accept(token.Comma, "") {
				break
			}
		}
		if _, err := p.expect(token.RParen, ""); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		row, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(token.Comma, "") {
			break
		}
	}
	return ins, nil
}
