// Package sql implements the declarative query interface: a lexer,
// abstract syntax tree and recursive-descent parser for the SQL subset the
// engine supports (README "Quickstart (library)" lists it). The paper's
// position is that the declarative interface itself is a major benefit
// over scripting tools (§2.2 "Declarative SQL Interface"); this package is
// that interface.
package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp    // < <= > >= = <> !=
	tokQMark // ? placeholder
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer splits a query string into tokens.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == '.':
		l.pos++
		return token{tokDot, ".", start}, nil
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case c == '?':
		l.pos++
		return token{tokQMark, "?", start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return token{tokOp, l.src[start:l.pos], start}, nil
		}
		return token{tokOp, "<", start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokOp, ">=", start}, nil
		}
		return token{tokOp, ">", start}, nil
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokOp, "<>", start}, nil
		}
		return token{}, l.errf(start, "unexpected '!'")
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{tokString, sb.String(), start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{}, l.errf(start, "unterminated string literal")
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
