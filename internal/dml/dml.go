// Package dml implements a small navigational data manipulation
// language over the OODB — the "conventional, generic data
// manipulation language" of the paper's §1.1 through which
// transactions bypass object encapsulation. Programs mix generic
// access (GET/PUT/SELECT/SCAN on implementation objects) with method
// invocation (CALL), under explicit transaction control:
//
//	BEGIN
//	CALL Items[1].ShipOrder(7)
//	GET  Items[1].Orders[7].Status
//	PUT  Items[1].Orders[7].CustomerNo = 42
//	SCAN Items[1].Orders
//	COMMIT
//
// Statements outside BEGIN/COMMIT run as single-statement
// transactions. Paths start at a bound database name and navigate
// tuple components with `.Comp` and set members with `[key]`; member
// lookup inside a transaction is a locked Select, exactly like the
// paper's generic Select operation.
package dml

import (
	"fmt"
	"strconv"
	"strings"

	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// Interp interprets DML statements against a database.
type Interp struct {
	db *oodb.DB
	tx *oodb.Tx
}

// New returns an interpreter for db.
func New(db *oodb.DB) *Interp { return &Interp{db: db} }

// InTx reports whether an explicit transaction is open.
func (in *Interp) InTx() bool { return in.tx != nil }

// Exec runs one statement and returns its printable result.
func (in *Interp) Exec(line string) (string, error) {
	toks, err := tokenize(line)
	if err != nil {
		return "", err
	}
	if len(toks) == 0 {
		return "", nil
	}
	p := &parser{toks: toks}
	kw := strings.ToUpper(p.next().text)
	switch kw {
	case "BEGIN":
		if in.tx != nil {
			return "", fmt.Errorf("dml: transaction already open")
		}
		in.tx = in.db.Begin()
		return "BEGIN", nil
	case "COMMIT":
		if in.tx == nil {
			return "", fmt.Errorf("dml: no open transaction")
		}
		err := in.tx.Commit()
		in.tx = nil
		if err != nil {
			return "", err
		}
		return "COMMIT", nil
	case "ABORT", "ROLLBACK":
		if in.tx == nil {
			return "", fmt.Errorf("dml: no open transaction")
		}
		err := in.tx.Abort()
		in.tx = nil
		if err != nil {
			return "", err
		}
		return "ABORT", nil
	case "SHOW":
		return in.show(p)
	case "GET", "PUT", "CALL", "SELECT", "SCAN":
		return in.autoTx(kw, p)
	default:
		return "", fmt.Errorf("dml: unknown statement %q", kw)
	}
}

// ExecScript runs a multi-line program, returning the outputs of all
// statements. Lines starting with "--" are comments.
func (in *Interp) ExecScript(src string) ([]string, error) {
	var out []string
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		r, err := in.Exec(line)
		if err != nil {
			if in.tx != nil {
				_ = in.tx.Abort()
				in.tx = nil
			}
			return out, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if r != "" {
			out = append(out, r)
		}
	}
	return out, nil
}

func (in *Interp) show(p *parser) (string, error) {
	what := strings.ToUpper(p.next().text)
	switch what {
	case "NAMES":
		names := in.db.Names()
		return "names: " + strings.Join(names, ", "), nil
	case "STATS":
		st := in.db.Engine().Stats()
		return fmt.Sprintf("commits=%d aborts=%d blocks=%d rootwaits=%d case1=%d case2=%d deadlocks=%d",
			st.RootsCommitted, st.RootsAborted, st.Blocks, st.RootWaits,
			st.Case1Grants, st.Case2Waits, st.Deadlocks), nil
	default:
		return "", fmt.Errorf("dml: SHOW wants NAMES or STATS")
	}
}

// autoTx runs one data statement, opening a single-statement
// transaction when none is open.
func (in *Interp) autoTx(kw string, p *parser) (string, error) {
	tx := in.tx
	auto := tx == nil
	if auto {
		tx = in.db.Begin()
	}
	out, err := in.data(tx, kw, p)
	if auto {
		if err != nil {
			_ = tx.Abort()
			return "", err
		}
		if cerr := tx.Commit(); cerr != nil {
			return "", cerr
		}
		return out, nil
	}
	return out, err
}

func (in *Interp) data(tx *oodb.Tx, kw string, p *parser) (string, error) {
	switch kw {
	case "GET":
		obj, err := in.path(tx, p)
		if err != nil {
			return "", err
		}
		v, err := tx.Get(obj)
		if err != nil {
			return "", err
		}
		return v.String(), nil
	case "PUT":
		obj, err := in.path(tx, p)
		if err != nil {
			return "", err
		}
		if !p.accept("=") {
			return "", fmt.Errorf("dml: PUT wants '='")
		}
		v, err := p.literal()
		if err != nil {
			return "", err
		}
		if err := tx.Put(obj, v); err != nil {
			return "", err
		}
		return "PUT ok", nil
	case "CALL":
		obj, method, args, err := in.callTarget(tx, p)
		if err != nil {
			return "", err
		}
		v, err := tx.Call(obj, method, args...)
		if err != nil {
			return "", err
		}
		if v.IsNull() {
			return "CALL ok", nil
		}
		return v.String(), nil
	case "SELECT":
		obj, err := in.path(tx, p)
		if err != nil {
			return "", err
		}
		return obj.String(), nil
	case "SCAN":
		set, err := in.path(tx, p)
		if err != nil {
			return "", err
		}
		entries, err := tx.Scan(set)
		if err != nil {
			return "", err
		}
		parts := make([]string, 0, len(entries))
		for _, e := range entries {
			parts = append(parts, fmt.Sprintf("[%s]=%s", e.Key, e.Member))
		}
		return fmt.Sprintf("%d members: %s", len(entries), strings.Join(parts, " ")), nil
	default:
		return "", fmt.Errorf("dml: unhandled %q", kw)
	}
}

// path parses Name(.Comp | [key])* and resolves it transactionally.
func (in *Interp) path(tx *oodb.Tx, p *parser) (oid.OID, error) {
	t := p.next()
	if t.kind != tokIdent {
		return oid.Nil, fmt.Errorf("dml: path must start with a bound name, got %q", t.text)
	}
	cur, ok := in.db.Lookup(t.text)
	if !ok {
		return oid.Nil, fmt.Errorf("dml: unknown name %q", t.text)
	}
	for {
		switch {
		case p.accept("."):
			c := p.next()
			if c.kind != tokIdent {
				return oid.Nil, fmt.Errorf("dml: component name expected after '.'")
			}
			next, err := tx.Component(cur, c.text)
			if err != nil {
				return oid.Nil, err
			}
			cur = next
		case p.accept("["):
			key, err := p.literal()
			if err != nil {
				return oid.Nil, err
			}
			if !p.accept("]") {
				return oid.Nil, fmt.Errorf("dml: ']' expected")
			}
			member, ok, err := tx.Select(cur, key)
			if err != nil {
				return oid.Nil, err
			}
			if !ok {
				return oid.Nil, fmt.Errorf("dml: no member %s", key)
			}
			cur = member
		default:
			return cur, nil
		}
	}
}

// callTarget parses Path.Method(args...). The final dotted identifier
// before '(' is the method name.
func (in *Interp) callTarget(tx *oodb.Tx, p *parser) (oid.OID, string, []val.V, error) {
	// Parse like a path, but stop when an identifier is followed by '('.
	t := p.next()
	if t.kind != tokIdent {
		return oid.Nil, "", nil, fmt.Errorf("dml: CALL path must start with a bound name")
	}
	cur, ok := in.db.Lookup(t.text)
	if !ok {
		return oid.Nil, "", nil, fmt.Errorf("dml: unknown name %q", t.text)
	}
	for {
		switch {
		case p.accept("."):
			c := p.next()
			if c.kind != tokIdent {
				return oid.Nil, "", nil, fmt.Errorf("dml: identifier expected after '.'")
			}
			if p.accept("(") {
				args, err := p.argList()
				if err != nil {
					return oid.Nil, "", nil, err
				}
				return cur, c.text, args, nil
			}
			next, err := tx.Component(cur, c.text)
			if err != nil {
				return oid.Nil, "", nil, err
			}
			cur = next
		case p.accept("["):
			key, err := p.literal()
			if err != nil {
				return oid.Nil, "", nil, err
			}
			if !p.accept("]") {
				return oid.Nil, "", nil, fmt.Errorf("dml: ']' expected")
			}
			member, ok, err := tx.Select(cur, key)
			if err != nil {
				return oid.Nil, "", nil, err
			}
			if !ok {
				return oid.Nil, "", nil, fmt.Errorf("dml: no member %s", key)
			}
			cur = member
		default:
			return oid.Nil, "", nil, fmt.Errorf("dml: CALL wants Path.Method(args)")
		}
	}
}

// --- lexer / parser ---------------------------------------------------

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("dml: unterminated string")
			}
			toks = append(toks, token{tokString, s[i+1 : j]})
			i = j + 1
		case isDigit(c) || (c == '-' && i+1 < len(s) && isDigit(s[i+1])):
			j := i + 1
			for j < len(s) && (isDigit(s[j]) || s[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, s[i:j]})
			i = j
		case isIdent(c):
			j := i + 1
			for j < len(s) && (isIdent(s[j]) || isDigit(s[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		case strings.ContainsRune(".[]()=,", rune(c)):
			toks = append(toks, token{tokPunct, string(c)})
			i++
		default:
			return nil, fmt.Errorf("dml: unexpected character %q", c)
		}
	}
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdent(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) next() token {
	if p.pos >= len(p.toks) {
		return token{tokPunct, ""}
	}
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return token{tokPunct, ""}
	}
	return p.toks[p.pos]
}

func (p *parser) accept(punct string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == punct {
		p.pos++
		return true
	}
	return false
}

// literal parses int, float, "string", true/false or null.
func (p *parser) literal() (val.V, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return val.NullV, fmt.Errorf("dml: bad float %q", t.text)
			}
			return val.OfFloat(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return val.NullV, fmt.Errorf("dml: bad integer %q", t.text)
		}
		return val.OfInt(n), nil
	case tokString:
		return val.OfStr(t.text), nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			return val.OfBool(true), nil
		case "false":
			return val.OfBool(false), nil
		case "null":
			return val.NullV, nil
		}
		return val.NullV, fmt.Errorf("dml: unknown literal %q", t.text)
	}
	return val.NullV, fmt.Errorf("dml: literal expected, got %q", t.text)
}

func (p *parser) argList() ([]val.V, error) {
	var args []val.V
	if p.accept(")") {
		return args, nil
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
		if p.accept(")") {
			return args, nil
		}
		if !p.accept(",") {
			return nil, fmt.Errorf("dml: ',' or ')' expected in argument list")
		}
	}
}
