// Package opal implements the OPAL language (paper §5.4): Smalltalk-80
// syntax and semantics — objects, messages, classes, blocks — extended with
// the data-language features the paper adds: path expressions with temporal
// subscripts, assignment to paths, set-calculus queries, and transaction /
// time-dial control, all compiled to Go closures and executed against a
// database session ("Communication with GemStone is done in blocks of OPAL
// source code. Compilation and execution of those blocks is done entirely in
// the GemStone system", §6).
package opal

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword // ident: (single keyword part)
	tkBinary  // binary selector: + - * / < > = ~ , % & ?
	tkInt
	tkFloat
	tkString
	tkChar
	tkSymbol    // #foo, #at:put:, #+
	tkHashParen // #(
	tkLParen
	tkRParen
	tkLBracket
	tkRBracket
	tkDot
	tkSemi
	tkCaret
	tkPipe
	tkAssign // :=
	tkColon
	tkBang     // ! path separator
	tkAt       // @ temporal subscript (reserved for time, not Point creation)
	tkCalculus // { ... } embedded set-calculus expression (raw text)
)

type token struct {
	kind tokenKind
	text string
	i    int64
	f    float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tkEOF:
		return "end of input"
	case tkInt:
		return fmt.Sprintf("%d", t.i)
	case tkFloat:
		return fmt.Sprintf("%g", t.f)
	case tkString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// binaryChars are the characters that can form binary selectors. Note that
// '!' and '@' are excluded: OPAL claims them for path expressions and
// temporal subscripts.
const binaryChars = "+-*/~<>=&|,%?\\"

func isBinaryChar(c byte) bool { return strings.IndexByte(binaryChars, c) >= 0 }

func isLetter(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentChar(c byte) bool { return isLetter(c) || isDigit(c) }

type lexErr struct {
	msg string
	pos int
}

func (e *lexErr) Error() string { return fmt.Sprintf("opal: %s at offset %d", e.msg, e.pos) }

func lexSource(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"': // comment
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, &lexErr{"unterminated comment", i}
			}
			i = j + 1
		case isDigit(c):
			start := i
			for i < len(src) && isDigit(src[i]) {
				i++
			}
			isFloat := false
			if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
				isFloat = true
				i++
				for i < len(src) && isDigit(src[i]) {
					i++
				}
			}
			// Exponent: 1e3, 2.5e-4.
			if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < len(src) && (src[j] == '-' || src[j] == '+') {
					j++
				}
				if j < len(src) && isDigit(src[j]) {
					isFloat = true
					i = j
					for i < len(src) && isDigit(src[i]) {
						i++
					}
				}
			}
			text := src[start:i]
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, &lexErr{"bad number " + text, start}
				}
				toks = append(toks, token{kind: tkFloat, f: f, text: text, pos: start})
			} else {
				n, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, &lexErr{"integer out of range " + text, start}
				}
				toks = append(toks, token{kind: tkInt, i: n, text: text, pos: start})
			}
		case isLetter(c):
			start := i
			for i < len(src) && isIdentChar(src[i]) {
				i++
			}
			if i < len(src) && src[i] == ':' && (i+1 >= len(src) || src[i+1] != '=') {
				i++
				toks = append(toks, token{kind: tkKeyword, text: src[start:i], pos: start})
			} else {
				toks = append(toks, token{kind: tkIdent, text: src[start:i], pos: start})
			}
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &lexErr{"unterminated string", start}
			}
			toks = append(toks, token{kind: tkString, text: b.String(), pos: start})
		case c == '$':
			if i+1 >= len(src) {
				return nil, &lexErr{"character literal at end of input", i}
			}
			_, w := utf8.DecodeRuneInString(src[i+1:])
			toks = append(toks, token{kind: tkChar, text: src[i+1 : i+1+w], pos: i})
			i += 1 + w
		case c == '#':
			start := i
			i++
			if i < len(src) && src[i] == '(' {
				toks = append(toks, token{kind: tkHashParen, text: "#(", pos: start})
				i++
				continue
			}
			if i < len(src) && src[i] == '\'' {
				// #'quoted symbol'
				i++
				var b strings.Builder
				closed := false
				for i < len(src) {
					if src[i] == '\'' {
						if i+1 < len(src) && src[i+1] == '\'' {
							b.WriteByte('\'')
							i += 2
							continue
						}
						i++
						closed = true
						break
					}
					b.WriteByte(src[i])
					i++
				}
				if !closed {
					return nil, &lexErr{"unterminated symbol", start}
				}
				toks = append(toks, token{kind: tkSymbol, text: b.String(), pos: start})
				continue
			}
			if i < len(src) && isLetter(src[i]) {
				s := i
				for i < len(src) && (isIdentChar(src[i]) || src[i] == ':') {
					i++
				}
				toks = append(toks, token{kind: tkSymbol, text: src[s:i], pos: start})
				continue
			}
			if i < len(src) && isBinaryChar(src[i]) {
				s := i
				for i < len(src) && isBinaryChar(src[i]) {
					i++
				}
				toks = append(toks, token{kind: tkSymbol, text: src[s:i], pos: start})
				continue
			}
			return nil, &lexErr{"bad symbol literal", start}
		case c == ':':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{kind: tkAssign, text: ":=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tkColon, text: ":", pos: i})
				i++
			}
		case c == '{':
			// An embedded set-calculus expression (§5.4): capture the raw
			// text to the matching close brace (braces nest: the target
			// tuple constructor is itself braced). Quoted strings inside the
			// query may contain braces.
			start := i
			depth := 0
			j := i
			inStr := false
			for j < len(src) {
				switch {
				case inStr:
					if src[j] == '\'' {
						if j+1 < len(src) && src[j+1] == '\'' {
							j++
						} else {
							inStr = false
						}
					}
				case src[j] == '\'':
					inStr = true
				case src[j] == '{':
					depth++
				case src[j] == '}':
					depth--
				}
				j++
				if depth == 0 && !inStr {
					break
				}
			}
			if depth != 0 {
				return nil, &lexErr{"unterminated calculus expression", start}
			}
			toks = append(toks, token{kind: tkCalculus, text: src[start+1 : j-1], pos: start})
			i = j
		case c == '(':
			toks = append(toks, token{kind: tkLParen, text: "(", pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tkRParen, text: ")", pos: i})
			i++
		case c == '[':
			toks = append(toks, token{kind: tkLBracket, text: "[", pos: i})
			i++
		case c == ']':
			toks = append(toks, token{kind: tkRBracket, text: "]", pos: i})
			i++
		case c == '.':
			toks = append(toks, token{kind: tkDot, text: ".", pos: i})
			i++
		case c == ';':
			toks = append(toks, token{kind: tkSemi, text: ";", pos: i})
			i++
		case c == '^':
			toks = append(toks, token{kind: tkCaret, text: "^", pos: i})
			i++
		case c == '!':
			toks = append(toks, token{kind: tkBang, text: "!", pos: i})
			i++
		case c == '@':
			toks = append(toks, token{kind: tkAt, text: "@", pos: i})
			i++
		case c == '|':
			// '|' may begin a binary selector (||? not in Smalltalk) but we
			// treat a solitary '|' as the temporaries/args delimiter and
			// leave binary '|' for Boolean or.
			if i+1 < len(src) && isBinaryChar(src[i+1]) && src[i+1] != '|' {
				start := i
				i++
				for i < len(src) && isBinaryChar(src[i]) {
					i++
				}
				toks = append(toks, token{kind: tkBinary, text: src[start:i], pos: start})
			} else {
				toks = append(toks, token{kind: tkPipe, text: "|", pos: i})
				i++
			}
		case isBinaryChar(c):
			start := i
			for i < len(src) && isBinaryChar(src[i]) && i-start < 2 {
				i++
			}
			toks = append(toks, token{kind: tkBinary, text: src[start:i], pos: start})
		default:
			return nil, &lexErr{fmt.Sprintf("unexpected character %q", c), i}
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: len(src)})
	return toks, nil
}
