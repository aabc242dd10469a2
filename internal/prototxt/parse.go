// Package prototxt parses the protobuf text format Caffe uses for network
// and solver definitions (§2.1: "Caffe allows a user to specify the
// network structure in a prototext format") and builds networks and solver
// configurations from it.
//
// The supported grammar is the subset the benchmark networks need:
//
//	message := (field)*
//	field   := ident ':' scalar | ident '{' message '}' | ident ':' '{' message '}'
//	scalar  := string | number | bool | ident
//
// Repeated fields (e.g. multiple `layer { ... }` blocks, multiple
// `bottom:` entries) accumulate in order. '#' starts a comment.
package prototxt

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is one field value: a scalar or a nested message.
type Value struct {
	// Scalar holds the raw token for scalar values ("" for messages).
	Scalar string
	// Msg holds the nested message for block values (nil for scalars).
	Msg *Message
}

// Float interprets the scalar as a number.
func (v Value) Float() (float64, error) {
	f, err := strconv.ParseFloat(v.Scalar, 64)
	if err != nil {
		return 0, fmt.Errorf("prototxt: %q is not a number", v.Scalar)
	}
	return f, nil
}

// Int interprets the scalar as an integer.
func (v Value) Int() (int, error) {
	f, err := v.Float()
	if err != nil {
		return 0, err
	}
	return int(f), nil
}

// Bool interprets the scalar as a boolean.
func (v Value) Bool() (bool, error) {
	switch v.Scalar {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("prototxt: %q is not a bool", v.Scalar)
}

// Message is an ordered multimap of field name to values.
type Message struct {
	names  []string
	values []Value
}

// add appends one field occurrence.
func (m *Message) add(name string, v Value) {
	m.names = append(m.names, name)
	m.values = append(m.values, v)
}

// All returns every value of the named field, in order.
func (m *Message) All(name string) []Value {
	var out []Value
	for i, n := range m.names {
		if n == name {
			out = append(out, m.values[i])
		}
	}
	return out
}

// Get returns the sole value of the named field; ok is false when absent.
func (m *Message) Get(name string) (Value, bool) {
	vs := m.All(name)
	if len(vs) == 0 {
		return Value{}, false
	}
	return vs[0], true
}

// String returns the named scalar field or def when absent.
func (m *Message) String(name, def string) string {
	if v, ok := m.Get(name); ok {
		return v.Scalar
	}
	return def
}

// Float returns the named numeric field or def when absent.
func (m *Message) Float(name string, def float64) (float64, error) {
	v, ok := m.Get(name)
	if !ok {
		return def, nil
	}
	return v.Float()
}

// Int returns the named integer field or def when absent.
func (m *Message) Int(name string, def int) (int, error) {
	v, ok := m.Get(name)
	if !ok {
		return def, nil
	}
	return v.Int()
}

// Msg returns the named nested message, or nil when absent.
func (m *Message) Msg(name string) *Message {
	if v, ok := m.Get(name); ok {
		return v.Msg
	}
	return nil
}

type lexer struct {
	src  string
	pos  int
	line int
}

type token struct {
	kind string // "ident", "scalar", "string", "{", "}", ":", "eof"
	text string
	line int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r' || c == ',':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '{' || c == '}' || c == ':':
			l.pos++
			return token{kind: string(c), text: string(c), line: l.line}, nil
		case c == '"' || c == '\'':
			quote := c
			start := l.pos + 1
			i := start
			for i < len(l.src) && l.src[i] != quote {
				if l.src[i] == '\n' {
					return token{}, fmt.Errorf("prototxt:%d: unterminated string", l.line)
				}
				i++
			}
			if i == len(l.src) {
				return token{}, fmt.Errorf("prototxt:%d: unterminated string", l.line)
			}
			text := l.src[start:i]
			l.pos = i + 1
			return token{kind: "string", text: text, line: l.line}, nil
		default:
			if isWordByte(c) {
				start := l.pos
				for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
					l.pos++
				}
				return token{kind: "ident", text: l.src[start:l.pos], line: l.line}, nil
			}
			return token{}, fmt.Errorf("prototxt:%d: unexpected character %q", l.line, c)
		}
	}
	return token{kind: "eof", line: l.line}, nil
}

// isWordByte reports whether c may appear in a bare identifier or scalar:
// ASCII letters, digits and "_.-+". Every other byte, including each byte
// of a multi-byte UTF-8 rune, needs quotes.
func isWordByte(c byte) bool {
	return c == '_' || c == '.' || c == '-' || c == '+' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// Parse parses a prototxt document into a Message.
func Parse(src string) (*Message, error) {
	l := &lexer{src: src, line: 1}
	msg, tok, err := parseMessage(l)
	if err != nil {
		return nil, err
	}
	if tok.kind != "eof" {
		return nil, fmt.Errorf("prototxt:%d: unexpected %q at top level", tok.line, tok.text)
	}
	return msg, nil
}

// parseMessage parses fields until '}' or EOF; it returns the terminator.
func parseMessage(l *lexer) (*Message, token, error) {
	m := &Message{}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, token{}, err
		}
		if tok.kind == "eof" || tok.kind == "}" {
			return m, tok, nil
		}
		if tok.kind != "ident" {
			return nil, token{}, fmt.Errorf("prototxt:%d: expected field name, got %q", tok.line, tok.text)
		}
		name := tok.text
		tok, err = l.next()
		if err != nil {
			return nil, token{}, err
		}
		switch tok.kind {
		case "{":
			sub, term, err := parseMessage(l)
			if err != nil {
				return nil, token{}, err
			}
			if term.kind != "}" {
				return nil, token{}, fmt.Errorf("prototxt:%d: missing '}' for %s", tok.line, name)
			}
			m.add(name, Value{Msg: sub})
		case ":":
			tok, err = l.next()
			if err != nil {
				return nil, token{}, err
			}
			switch tok.kind {
			case "string", "ident":
				m.add(name, Value{Scalar: tok.text})
			case "{":
				sub, term, err := parseMessage(l)
				if err != nil {
					return nil, token{}, err
				}
				if term.kind != "}" {
					return nil, token{}, fmt.Errorf("prototxt:%d: missing '}' for %s", tok.line, name)
				}
				m.add(name, Value{Msg: sub})
			default:
				return nil, token{}, fmt.Errorf("prototxt:%d: expected value after %s:, got %q", tok.line, name, tok.text)
			}
		default:
			return nil, token{}, fmt.Errorf("prototxt:%d: expected ':' or '{' after %s, got %q", tok.line, name, tok.text)
		}
	}
}

// quoteIfNeeded renders a scalar so the lexer reads back the same text: bare
// when every byte is a word byte, else between quotes the lexer does not
// unescape. A parsed scalar never holds both quote characters (the lexer
// ends a string at its own quote) nor a newline, so one of them fits.
func quoteIfNeeded(s string) string {
	for i := 0; i < len(s); i++ {
		if !isWordByte(s[i]) {
			if strings.IndexByte(s, '"') >= 0 {
				return "'" + s + "'"
			}
			return `"` + s + `"`
		}
	}
	if s == "" {
		return `""`
	}
	return s
}

// Render pretty-prints a message back to prototxt (used in diagnostics and
// round-trip tests).
func (m *Message) Render(indent string) string {
	var b strings.Builder
	for i, name := range m.names {
		v := m.values[i]
		if v.Msg != nil {
			fmt.Fprintf(&b, "%s%s {\n%s%s}\n", indent, name, v.Msg.Render(indent+"  "), indent)
		} else {
			fmt.Fprintf(&b, "%s%s: %s\n", indent, name, quoteIfNeeded(v.Scalar))
		}
	}
	return b.String()
}
