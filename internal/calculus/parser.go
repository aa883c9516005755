package calculus

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tStr
	tPunct // single/double char punctuation and operators
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			start := l.pos
			seenDot := false
			for l.pos < len(l.src) {
				d := l.src[l.pos]
				if d >= '0' && d <= '9' {
					l.pos++
				} else if d == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
					seenDot = true
					l.pos++
				} else {
					break
				}
			}
			// Number literals may use comma as a thousands separator in the
			// paper (142,000); we accept plain digits only.
			f, err := strconv.ParseFloat(l.src[start:l.pos], 64)
			if err != nil {
				return nil, fmt.Errorf("calculus: bad number at %d: %v", start, err)
			}
			l.toks = append(l.toks, token{kind: tNum, num: f, pos: start})
		case c == '\'':
			start := l.pos
			l.pos++
			var b strings.Builder
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					closed = true
					break
				}
				b.WriteByte(l.src[l.pos])
				l.pos++
			}
			if !closed {
				return nil, fmt.Errorf("calculus: unterminated string at %d", start)
			}
			l.toks = append(l.toks, token{kind: tStr, text: b.String(), pos: start})
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := l.pos
			for l.pos < len(l.src) {
				d := l.src[l.pos]
				if d == '_' || d >= 'a' && d <= 'z' || d >= 'A' && d <= 'Z' || d >= '0' && d <= '9' {
					l.pos++
				} else {
					break
				}
			}
			l.toks = append(l.toks, token{kind: tIdent, text: l.src[start:l.pos], pos: start})
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "<=", ">=", "!=":
				l.toks = append(l.toks, token{kind: tPunct, text: two, pos: l.pos})
				l.pos += 2
				continue
			}
			switch c {
			case '{', '}', '(', ')', '[', ']', ',', ':', '!', '@', '<', '>', '=', '+', '-', '*', '/', '.':
				l.toks = append(l.toks, token{kind: tPunct, text: string(c), pos: l.pos})
				l.pos++
			default:
				return nil, fmt.Errorf("calculus: unexpected character %q at %d", c, l.pos)
			}
		}
	}
	l.toks = append(l.toks, token{kind: tEOF, pos: l.pos})
	return l.toks, nil
}

type parser struct {
	toks        []token
	i           int
	bound       map[string]bool // variables bound by ranges so far
	q           *Query
	insideGroup bool // inside parentheses, where 'and' binds expressions
	depth       int  // nesting levels open at the current token
}

// maxNesting bounds how deeply parentheses, unary minus, 'not' and
// dependent range bodies nest: deeper input is a parse error, not a parser
// stack overflow.
const maxNesting = 1000

// nest opens one nesting level; the caller closes it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("expression nests deeper than %d", maxNesting)
	}
	return nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("calculus: %s near offset %d", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) expectPunct(s string) error {
	if p.cur().kind == tPunct && p.cur().text == s {
		p.i++
		return nil
	}
	return p.errf("expected %q", s)
}

func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *parser) isKeyword(s string) bool {
	return p.cur().kind == tIdent && p.cur().text == s
}

// Parse parses a complete calculus query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, bound: map[string]bool{}, q: &Query{}}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tIdent {
			return nil, p.errf("expected target label")
		}
		label := p.next().text
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		if p.cur().kind != tIdent {
			return nil, p.errf("expected variable after label %q", label)
		}
		p.q.Target = append(p.q.Target, TargetField{Label: label, Var: p.next().text})
		if p.isPunct(",") {
			p.i++
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if !p.isKeyword("where") {
		return nil, p.errf("expected 'where'")
	}
	p.i++
	pred, err := p.body()
	if err != nil {
		return nil, err
	}
	p.q.Pred = pred
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing input")
	}
	// Every target variable must be bound by some range.
	for _, t := range p.q.Target {
		if !p.bound[t.Var] {
			return nil, fmt.Errorf("calculus: target variable %q is not bound by any range", t.Var)
		}
	}
	return p.q, nil
}

// body parses a conjunction of items (ranges, quantified blocks,
// predicates), flattening ranges into q.Ranges and returning the residual
// predicate (possibly nil).
func (p *parser) body() (Expr, error) {
	var pred Expr
	for {
		item, err := p.item()
		if err != nil {
			return nil, err
		}
		pred = And(pred, item)
		if p.isKeyword("and") {
			p.i++
			continue
		}
		return pred, nil
	}
}

// item parses one conjunct. A parenthesized `x in S` where x is a bare
// unbound identifier is a range; it may be followed by a bracketed
// dependent body.
func (p *parser) item() (Expr, error) {
	if p.isPunct("(") {
		// Lookahead for the range form: ( ident in ... ).
		if p.toks[p.i+1].kind == tIdent && !p.bound[p.toks[p.i+1].text] &&
			p.toks[p.i+2].kind == tIdent && p.toks[p.i+2].text == "in" {
			p.i++ // (
			v := p.next().text
			p.i++ // in
			src, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			p.q.Ranges = append(p.q.Ranges, Range{Var: v, Source: src})
			p.bound[v] = true
			if p.isPunct("[") {
				if err := p.nest(); err != nil {
					return nil, err
				}
				p.i++
				inner, err := p.body()
				p.depth--
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				return inner, nil
			}
			return nil, nil
		}
	}
	return p.orExpr()
}

// Predicate grammar: or > and > not > comparison > additive > multiplicative.
func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		p.i++
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	// 'and' at this level only applies inside parentheses; top-level 'and'
	// is consumed by body(). We still accept it here for nested groups.
	for p.isKeyword("and") && p.insideGroup {
		p.i++
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.isKeyword("not") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.i++
		e, err := p.notExpr()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	var op Op
	switch {
	case p.isPunct("="):
		op = OpEq
	case p.isPunct("!="):
		op = OpNe
	case p.isPunct("<"):
		op = OpLt
	case p.isPunct("<="):
		op = OpLe
	case p.isPunct(">"):
		op = OpGt
	case p.isPunct(">="):
		op = OpGe
	case p.isKeyword("in"):
		op = OpIn
	default:
		return l, nil
	}
	p.i++
	r, err := p.additive()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r}, nil
}

func (p *parser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.isPunct("+"):
			op = OpAdd
		case p.isPunct("-"):
			op = OpSub
		default:
			return l, nil
		}
		p.i++
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) multiplicative() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.isPunct("*"):
			op = OpMul
		case p.isPunct("/"):
			op = OpDiv
		default:
			return l, nil
		}
		p.i++
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) factor() (Expr, error) {
	switch t := p.cur(); {
	case t.kind == tNum:
		p.i++
		return Num{V: t.num}, nil
	case t.kind == tStr:
		p.i++
		// A quoted string followed by path steps is not a literal but the
		// first step of a path from a prior token; strings as roots are not
		// supported, so here it is always a literal.
		return Str{V: t.text}, nil
	case t.kind == tIdent && t.text == "true":
		p.i++
		return Bool{V: true}, nil
	case t.kind == tIdent && t.text == "false":
		p.i++
		return Bool{V: false}, nil
	case t.kind == tIdent && t.text == "nil":
		p.i++
		return Nil{}, nil
	case t.kind == tIdent:
		return p.path()
	case p.isPunct("("):
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.i++
		save := p.insideGroup
		p.insideGroup = true
		e, err := p.orExpr()
		p.insideGroup = save
		p.depth--
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.isPunct("-"):
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.i++
		e, err := p.factor()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpSub, L: Num{V: 0}, R: e}, nil
	}
	return nil, p.errf("unexpected token")
}

// path parses var ('!' step)*.
func (p *parser) path() (Expr, error) {
	root := p.next().text
	pe := &Path{Root: root}
	for p.isPunct("!") {
		p.i++
		var st PathStep
		switch t := p.cur(); {
		case t.kind == tIdent:
			st.Name = t.text
			p.i++
		case t.kind == tStr:
			st.Name = t.text
			p.i++
		case t.kind == tNum && t.num == float64(int64(t.num)):
			st.IsIndex, st.Index = true, int64(t.num)
			p.i++
		default:
			return nil, p.errf("expected element name after '!'")
		}
		if p.isPunct("@") {
			p.i++
			if p.cur().kind != tNum {
				return nil, p.errf("expected time after '@'")
			}
			st.HasAt, st.At = true, uint64(p.cur().num)
			p.i++
		}
		pe.Steps = append(pe.Steps, st)
	}
	return pe, nil
}
