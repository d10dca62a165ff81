// Package filter implements the small metadata-filter expression
// language used by filtered search. An expression is a conjunction of
// terms over per-vector string tags:
//
//	term := key '=' value
//	      | key 'in' '{' value (',' value)* '}'
//	expr := term (('and' | '&&') term)*
//
// Keys and values are bare tokens drawn from [A-Za-z0-9_.:/-]. The
// expression compiles to a predicate over tag maps; Canonical() renders
// a deterministic normal form (terms sorted by key, values sorted and
// deduplicated) suitable for cache keys and batch grouping.
//
// A nil *Expr matches everything; handlers treat an absent/empty filter
// string as nil.
package filter

import (
	"fmt"
	"sort"
	"strings"
)

// Limits keep adversarial inputs (fuzzing, untrusted HTTP bodies) from
// building pathological expressions.
const (
	MaxLen           = 4096 // bytes of source text
	MaxTerms         = 64
	MaxValuesPerTerm = 256
)

// Term is one conjunct: the tag at Key must equal one of Values.
// Values is sorted and deduplicated; len(Values) == 1 renders as
// key=value, longer sets render as key in {a,b}.
type Term struct {
	Key    string
	Values []string
}

// Expr is a parsed filter: the conjunction of all Terms. The zero
// value (no terms) matches everything, as does a nil *Expr.
type Expr struct {
	terms []Term
	canon string
}

// Parse parses a filter expression. An empty (or all-whitespace)
// string yields (nil, nil): no filter.
func Parse(s string) (*Expr, error) {
	if len(s) > MaxLen {
		return nil, fmt.Errorf("filter: expression longer than %d bytes", MaxLen)
	}
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, nil
	}
	p := parser{toks: toks}
	terms, err := p.expr()
	if err != nil {
		return nil, err
	}
	return newExpr(terms), nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(s string) *Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// New builds an expression directly from terms (values need not be
// sorted). Used by benchmarks and programmatic callers.
func New(terms ...Term) *Expr {
	cp := make([]Term, len(terms))
	for i, t := range terms {
		vs := append([]string(nil), t.Values...)
		cp[i] = Term{Key: t.Key, Values: vs}
	}
	return newExpr(cp)
}

func newExpr(terms []Term) *Expr {
	for i := range terms {
		sort.Strings(terms[i].Values)
		terms[i].Values = dedup(terms[i].Values)
	}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].Key < terms[j].Key })
	e := &Expr{terms: terms}
	e.canon = e.render()
	return e
}

// Matches reports whether the tag map satisfies every term. A nil
// expression matches all; a vector with no tags only matches the empty
// expression.
func (e *Expr) Matches(tags map[string]string) bool {
	if e == nil {
		return true
	}
	for i := range e.terms {
		t := &e.terms[i]
		v, ok := tags[t.Key]
		if !ok || !contains(t.Values, v) {
			return false
		}
	}
	return true
}

// Empty reports whether the expression constrains nothing.
func (e *Expr) Empty() bool { return e == nil || len(e.terms) == 0 }

// Len returns the number of conjuncts.
func (e *Expr) Len() int {
	if e == nil {
		return 0
	}
	return len(e.terms)
}

// Term returns conjunct i in canonical order without copying it; its
// Values are shared with the expression and must not be modified.
func (e *Expr) Term(i int) Term { return e.terms[i] }

// Terms returns a copy of the conjuncts in canonical order.
func (e *Expr) Terms() []Term {
	if e == nil {
		return nil
	}
	out := make([]Term, len(e.terms))
	for i, t := range e.terms {
		out[i] = Term{Key: t.Key, Values: append([]string(nil), t.Values...)}
	}
	return out
}

// Canonical returns the deterministic normal form: terms sorted by key
// (stable for duplicate keys), values sorted and deduplicated, single
// spelling for separators. Two expressions with equal Canonical()
// accept exactly the same tag maps, so it is safe to use as a cache-key
// component and for batch grouping. Nil and empty both render "".
func (e *Expr) Canonical() string {
	if e == nil {
		return ""
	}
	return e.canon
}

func (e *Expr) String() string { return e.Canonical() }

func (e *Expr) render() string {
	var b strings.Builder
	for i := range e.terms {
		if i > 0 {
			b.WriteString(" and ")
		}
		t := &e.terms[i]
		if len(t.Values) == 1 {
			b.WriteString(t.Key)
			b.WriteByte('=')
			b.WriteString(t.Values[0])
			continue
		}
		b.WriteString(t.Key)
		b.WriteString(" in {")
		for j, v := range t.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v)
		}
		b.WriteByte('}')
	}
	return b.String()
}

func contains(sorted []string, v string) bool {
	i := sort.SearchStrings(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for _, v := range sorted {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// --- lexer ---

type tokKind int

const (
	tokWord   tokKind = iota // bare token (key, value, and/in keywords)
	tokEq                    // =
	tokLBrace                // {
	tokRBrace                // }
	tokComma                 // ,
	tokAndOp                 // &&
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func isWordByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '.' || c == ':' || c == '/' || c == '-':
		return true
	}
	return false
}

func lex(s string) ([]token, error) {
	var toks []token
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", i})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '&':
			if i+1 >= len(s) || s[i+1] != '&' {
				return nil, fmt.Errorf("filter: stray '&' at offset %d", i)
			}
			toks = append(toks, token{tokAndOp, "&&", i})
			i += 2
		case isWordByte(c):
			j := i
			for j < len(s) && isWordByte(s[j]) {
				j++
			}
			toks = append(toks, token{tokWord, s[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("filter: invalid character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() (token, bool) {
	if p.i >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.i], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.i++
	}
	return t, ok
}

func isAnd(t token) bool {
	if t.kind == tokAndOp {
		return true
	}
	return t.kind == tokWord && strings.EqualFold(t.text, "and")
}

func isIn(t token) bool {
	return t.kind == tokWord && strings.EqualFold(t.text, "in")
}

func (p *parser) expr() ([]Term, error) {
	var terms []Term
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		if len(terms) > MaxTerms {
			return nil, fmt.Errorf("filter: more than %d terms", MaxTerms)
		}
		sep, ok := p.peek()
		if !ok {
			return terms, nil
		}
		if !isAnd(sep) {
			return nil, fmt.Errorf("filter: expected 'and' at offset %d, got %q", sep.pos, sep.text)
		}
		p.i++
	}
}

func (p *parser) term() (Term, error) {
	key, ok := p.next()
	if !ok {
		return Term{}, fmt.Errorf("filter: expected tag key at end of input")
	}
	if key.kind != tokWord {
		return Term{}, fmt.Errorf("filter: expected tag key at offset %d, got %q", key.pos, key.text)
	}
	op, ok := p.next()
	if !ok {
		return Term{}, fmt.Errorf("filter: expected '=' or 'in' after %q", key.text)
	}
	switch {
	case op.kind == tokEq:
		v, ok := p.next()
		if !ok || v.kind != tokWord {
			return Term{}, fmt.Errorf("filter: expected value after %q=", key.text)
		}
		return Term{Key: key.text, Values: []string{v.text}}, nil
	case isIn(op):
		lb, ok := p.next()
		if !ok || lb.kind != tokLBrace {
			return Term{}, fmt.Errorf("filter: expected '{' after %q in", key.text)
		}
		var vals []string
		for {
			v, ok := p.next()
			if !ok || v.kind != tokWord {
				return Term{}, fmt.Errorf("filter: expected value in %q in {...}", key.text)
			}
			vals = append(vals, v.text)
			if len(vals) > MaxValuesPerTerm {
				return Term{}, fmt.Errorf("filter: more than %d values in one set", MaxValuesPerTerm)
			}
			sep, ok := p.next()
			if !ok {
				return Term{}, fmt.Errorf("filter: unterminated '{' in %q in {...}", key.text)
			}
			if sep.kind == tokRBrace {
				return Term{Key: key.text, Values: vals}, nil
			}
			if sep.kind != tokComma {
				return Term{}, fmt.Errorf("filter: expected ',' or '}' at offset %d, got %q", sep.pos, sep.text)
			}
		}
	default:
		return Term{}, fmt.Errorf("filter: expected '=' or 'in' after %q, got %q", key.text, op.text)
	}
}
