package opal

import (
	"fmt"
	"strings"
)

type parseErr struct {
	msg string
	pos int
}

func (e *parseErr) Error() string { return fmt.Sprintf("opal: %s at offset %d", e.msg, e.pos) }

type parser struct {
	toks  []token
	i     int
	depth int // expressions and literal arrays open at the current token
}

// maxNesting bounds how deeply expressions (parentheses, blocks, chained
// assignments, @(...) times) and literal arrays nest, as maxDepth bounds
// calls: deeper source is a parse error, not a parser stack overflow. The
// statement itself is the first level.
const maxNesting = 1000

// nest opens one nesting level; the caller closes it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("expressions nest deeper than %d", maxNesting)
	}
	return nil
}

func (p *parser) cur() token          { return p.toks[p.i] }
func (p *parser) next() token         { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) errf(format string, args ...any) error {
	return &parseErr{fmt.Sprintf(format, args...), p.cur().pos}
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, found %s", what, p.cur())
	}
	return p.next(), nil
}

// parseMethod parses a full method definition: pattern, temps, body.
func parseMethod(src string) (*methodAST, error) {
	toks, err := lexSource(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &methodAST{}
	switch t := p.cur(); t.kind {
	case tkIdent: // unary pattern
		m.selector = t.text
		p.i++
	case tkBinary, tkPipe: // binary pattern (| as binary selector for or)
		m.selector = t.text
		p.i++
		arg, err := p.expect(tkIdent, "argument name")
		if err != nil {
			return nil, err
		}
		m.params = append(m.params, arg.text)
	case tkKeyword:
		var sel strings.Builder
		for p.at(tkKeyword) {
			sel.WriteString(p.next().text)
			arg, err := p.expect(tkIdent, "argument name")
			if err != nil {
				return nil, err
			}
			m.params = append(m.params, arg.text)
		}
		m.selector = sel.String()
	default:
		return nil, p.errf("expected method pattern, found %s", t)
	}
	temps, err := p.temporaries()
	if err != nil {
		return nil, err
	}
	m.temps = temps
	body, err := p.statements(tkEOF)
	if err != nil {
		return nil, err
	}
	m.body = body
	if !p.at(tkEOF) {
		return nil, p.errf("trailing input after method body")
	}
	return m, nil
}

// parseDoIt parses an executable code block (no pattern).
func parseDoIt(src string) (*methodAST, error) {
	toks, err := lexSource(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &methodAST{selector: "doIt"}
	temps, err := p.temporaries()
	if err != nil {
		return nil, err
	}
	m.temps = temps
	body, err := p.statements(tkEOF)
	if err != nil {
		return nil, err
	}
	m.body = body
	if !p.at(tkEOF) {
		return nil, p.errf("trailing input")
	}
	return m, nil
}

func (p *parser) temporaries() ([]string, error) {
	if !p.at(tkPipe) {
		return nil, nil
	}
	p.i++
	var temps []string
	for p.at(tkIdent) {
		temps = append(temps, p.next().text)
	}
	if _, err := p.expect(tkPipe, "'|' closing temporaries"); err != nil {
		return nil, err
	}
	return temps, nil
}

// statements parses statements until the given closing token (not consumed).
func (p *parser) statements(closer tokenKind) ([]node, error) {
	var out []node
	for {
		if p.at(closer) || p.at(tkEOF) {
			return out, nil
		}
		if p.at(tkCaret) {
			at := p.next().pos
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			out = append(out, &returnNode{base: base{at}, value: e})
			if p.at(tkDot) {
				p.i++
			}
			if !p.at(closer) && !p.at(tkEOF) {
				return nil, p.errf("statements after ^-return")
			}
			return out, nil
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.at(tkDot) {
			p.i++
			continue
		}
		if p.at(closer) || p.at(tkEOF) {
			return out, nil
		}
		return nil, p.errf("expected '.' between statements, found %s", p.cur())
	}
}

// expression := assignment | cascade
func (p *parser) expression() (node, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	// Assignment lookahead: primary path/ident followed by :=.
	save := p.i
	if p.at(tkIdent) {
		tgt, err := p.pathOrVar()
		if err == nil && p.at(tkAssign) {
			at := p.next().pos
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			return &assignNode{base: base{at}, target: tgt, value: val}, nil
		}
		p.i = save
	}
	return p.cascade()
}

// pathOrVar parses ident ('!' seg)* for assignment targets.
func (p *parser) pathOrVar() (node, error) {
	t, err := p.expect(tkIdent, "variable")
	if err != nil {
		return nil, err
	}
	v := &varNode{base: base{t.pos}, name: t.text}
	if !p.at(tkBang) {
		return v, nil
	}
	return p.pathFrom(v)
}

func (p *parser) pathFrom(root node) (node, error) {
	pn := &pathNode{base: base{p.cur().pos}, root: root}
	for p.at(tkBang) {
		p.i++
		var seg pathSeg
		switch t := p.cur(); t.kind {
		case tkIdent:
			seg.name = t.text
			p.i++
		case tkString:
			seg.name = t.text
			p.i++
		case tkInt:
			seg.isIndex, seg.index = true, t.i
			p.i++
		default:
			return nil, p.errf("expected element name after '!', found %s", t)
		}
		if p.at(tkAt) {
			p.i++
			// Time subscript: integer literal, variable, or parenthesized
			// expression.
			switch t := p.cur(); t.kind {
			case tkInt:
				seg.timeExp = &literalNode{base: base{t.pos}, kind: litInt, i: t.i}
				p.i++
			case tkIdent:
				seg.timeExp = &varNode{base: base{t.pos}, name: t.text}
				p.i++
			case tkLParen:
				p.i++
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tkRParen, "')'"); err != nil {
					return nil, err
				}
				seg.timeExp = e
			default:
				return nil, p.errf("expected time after '@', found %s", t)
			}
		}
		pn.segs = append(pn.segs, seg)
	}
	return pn, nil
}

// cascade := keywordExpr (';' cascadeMessage)*
func (p *parser) cascade() (node, error) {
	e, err := p.keywordExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tkSemi) {
		return e, nil
	}
	// The cascade receiver is the receiver of e's OUTERMOST send.
	first, ok := e.(*sendNode)
	if !ok {
		return nil, p.errf("cascade after non-message expression")
	}
	cas := &cascadeNode{base: base{p.cur().pos}, receiver: first.receiver}
	cas.sends = append(cas.sends, casSend{selector: first.selector, args: first.args})
	for p.at(tkSemi) {
		p.i++
		sel, args, err := p.cascadeMessage()
		if err != nil {
			return nil, err
		}
		cas.sends = append(cas.sends, casSend{selector: sel, args: args})
	}
	return cas, nil
}

// cascadeMessage parses one message (unary, binary or keyword) without a
// receiver.
func (p *parser) cascadeMessage() (string, []node, error) {
	switch t := p.cur(); t.kind {
	case tkIdent:
		p.i++
		return t.text, nil, nil
	case tkBinary, tkPipe:
		p.i++
		arg, err := p.binaryOperand()
		if err != nil {
			return "", nil, err
		}
		return t.text, []node{arg}, nil
	case tkKeyword:
		var sel strings.Builder
		var args []node
		for p.at(tkKeyword) {
			sel.WriteString(p.next().text)
			a, err := p.binaryExpr()
			if err != nil {
				return "", nil, err
			}
			args = append(args, a)
		}
		return sel.String(), args, nil
	}
	return "", nil, p.errf("expected message in cascade, found %s", p.cur())
}

// keywordExpr := binaryExpr (keyword binaryExpr)*
func (p *parser) keywordExpr() (node, error) {
	recv, err := p.binaryExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tkKeyword) {
		return recv, nil
	}
	at := p.cur().pos
	var sel strings.Builder
	var args []node
	for p.at(tkKeyword) {
		sel.WriteString(p.next().text)
		a, err := p.binaryExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	sup := isSuper(recv)
	return &sendNode{base: base{at}, receiver: recv, selector: sel.String(), args: args, super: sup}, nil
}

// binaryExpr := unaryExpr (binsel unaryExpr)*
func (p *parser) binaryExpr() (node, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tkBinary) || p.at(tkPipe) {
		t := p.next()
		r, err := p.binaryOperand()
		if err != nil {
			return nil, err
		}
		l = &sendNode{base: base{t.pos}, receiver: l, selector: t.text, args: []node{r}, super: isSuper(l)}
	}
	return l, nil
}

func (p *parser) binaryOperand() (node, error) { return p.unaryExpr() }

// unaryExpr := primary unarySelector*
func (p *parser) unaryExpr() (node, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(tkIdent) {
		t := p.next()
		e = &sendNode{base: base{t.pos}, receiver: e, selector: t.text, super: isSuper(e)}
	}
	return e, nil
}

func isSuper(n node) bool {
	v, ok := n.(*varNode)
	return ok && v.name == "super"
}

// primary := literal | variable | block | (expr) | #(...) — each optionally
// followed by a path suffix (!seg...).
func (p *parser) primary() (node, error) {
	e, err := p.primaryNoPath()
	if err != nil {
		return nil, err
	}
	if p.at(tkBang) {
		return p.pathFrom(e)
	}
	return e, nil
}

func (p *parser) primaryNoPath() (node, error) {
	switch t := p.cur(); t.kind {
	case tkInt:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litInt, i: t.i}, nil
	case tkFloat:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litFloat, f: t.f}, nil
	case tkString:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litString, s: t.text}, nil
	case tkChar:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litChar, s: t.text}, nil
	case tkSymbol:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litSymbol, s: t.text}, nil
	case tkBinary:
		// Negative number literal: -3.
		if t.text == "-" && p.toks[p.i+1].kind == tkInt {
			p.i += 2
			return &literalNode{base: base{t.pos}, kind: litInt, i: -p.toks[p.i-1].i}, nil
		}
		if t.text == "-" && p.toks[p.i+1].kind == tkFloat {
			p.i += 2
			return &literalNode{base: base{t.pos}, kind: litFloat, f: -p.toks[p.i-1].f}, nil
		}
		return nil, p.errf("unexpected %s", t)
	case tkIdent:
		p.i++
		switch t.text {
		case "true":
			return &literalNode{base: base{t.pos}, kind: litTrue}, nil
		case "false":
			return &literalNode{base: base{t.pos}, kind: litFalse}, nil
		case "nil":
			return &literalNode{base: base{t.pos}, kind: litNil}, nil
		}
		return &varNode{base: base{t.pos}, name: t.text}, nil
	case tkLParen:
		p.i++
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tkLBracket:
		return p.block()
	case tkHashParen:
		return p.literalArray()
	case tkCalculus:
		p.i++
		return &calculusNode{base: base{t.pos}, src: t.text}, nil
	}
	return nil, p.errf("unexpected %s", p.cur())
}

func (p *parser) block() (node, error) {
	t, _ := p.expect(tkLBracket, "'['")
	b := &blockNode{base: base{t.pos}}
	for p.at(tkColon) {
		p.i++
		arg, err := p.expect(tkIdent, "block argument name")
		if err != nil {
			return nil, err
		}
		b.params = append(b.params, arg.text)
	}
	if len(b.params) > 0 {
		if _, err := p.expect(tkPipe, "'|' after block arguments"); err != nil {
			return nil, err
		}
	}
	temps, err := p.temporaries()
	if err != nil {
		return nil, err
	}
	b.temps = temps
	body, err := p.statements(tkRBracket)
	if err != nil {
		return nil, err
	}
	b.body = body
	if _, err := p.expect(tkRBracket, "']'"); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *parser) literalArray() (node, error) {
	t, _ := p.expect(tkHashParen, "'#('")
	arr := &literalNode{base: base{t.pos}, kind: litArray}
	for !p.at(tkRParen) {
		el, err := p.literalArrayElement()
		if err != nil {
			return nil, err
		}
		arr.arr = append(arr.arr, el)
	}
	p.i++ // )
	return arr, nil
}

func (p *parser) literalArrayElement() (*literalNode, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	switch t := p.cur(); t.kind {
	case tkInt:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litInt, i: t.i}, nil
	case tkFloat:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litFloat, f: t.f}, nil
	case tkString:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litString, s: t.text}, nil
	case tkChar:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litChar, s: t.text}, nil
	case tkSymbol:
		p.i++
		return &literalNode{base: base{t.pos}, kind: litSymbol, s: t.text}, nil
	case tkIdent:
		p.i++
		switch t.text {
		case "true":
			return &literalNode{base: base{t.pos}, kind: litTrue}, nil
		case "false":
			return &literalNode{base: base{t.pos}, kind: litFalse}, nil
		case "nil":
			return &literalNode{base: base{t.pos}, kind: litNil}, nil
		}
		// Bare identifiers inside #() are symbols, per ST80.
		return &literalNode{base: base{t.pos}, kind: litSymbol, s: t.text}, nil
	case tkHashParen:
		n, err := p.literalArray()
		if err != nil {
			return nil, err
		}
		return n.(*literalNode), nil
	case tkLParen:
		// Nested array in ST80 literal arrays: #( (1 2) ) — treat like #( ... ).
		p.i++
		arr := &literalNode{base: base{t.pos}, kind: litArray}
		for !p.at(tkRParen) {
			el, err := p.literalArrayElement()
			if err != nil {
				return nil, err
			}
			arr.arr = append(arr.arr, el)
		}
		p.i++
		return arr, nil
	case tkBinary:
		if t.text == "-" && p.toks[p.i+1].kind == tkInt {
			p.i += 2
			return &literalNode{base: base{t.pos}, kind: litInt, i: -p.toks[p.i-1].i}, nil
		}
	}
	return nil, p.errf("bad literal array element %s", p.cur())
}
