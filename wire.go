package borg

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"borg/internal/ivm"
	"borg/internal/relation"
)

// IngestResult reports what IngestJSON did with a body it could scan.
type IngestResult struct {
	// Rows is the number of ops the body held, Array whether it was a
	// JSON array of ops rather than one op object.
	Rows  int
	Array bool
	// Errors is nil when every row was enqueued; otherwise Errors[i] is
	// why row i was not (nil for the rows that were).
	Errors []error
}

// wireDepth is the deepest nesting a body may have: encoding/json's own
// limit, so a body is refused for depth exactly when json.Valid refuses.
const wireDepth = 10000

// A span is a string of the body: bytes lo..hi of the body itself, or
// of the scanner's text when the string had to be unquoted.
type span struct {
	lo, hi   int32
	unquoted bool
}

// cellKind tags one scanned value of a "values" array.
type cellKind uint8

const (
	cellNum cellKind = iota
	cellStr
	cellNull // and every kind after it is cellOther to coerceCell
	cellBool
	cellArray
	cellObject
	cellOther = cellNull
)

// cellGot names a cell's JSON type in a row error.
var cellGot = [...]string{"a number", "a string", "null", "a boolean", "an array", "an object"}

type wireCell struct {
	kind cellKind
	num  float64
	text span
}

// wireRow is one scanned op; its rows are cells lo..lo+n, n < 0 when the
// key was absent or null.
type wireRow struct {
	rel, op     span
	valLo, valN int32
	newLo, newN int32
}

// wireScan is phase 1 of IngestJSON: one pass over the body that checks
// its syntax and records rows and cells, touching neither queue nor
// dictionary. Pooled, so a warmed scan allocates nothing. The first
// error sticks and moves the scan to the end of the body, where every
// loop stops; the methods therefore return no errors.
type wireScan struct {
	b     []byte
	i     int
	depth int
	err   error
	rows  []wireRow
	cells []wireCell
	text  []byte // strings that had to be unquoted
	// vals is the row being enqueued: the sink copies it, so every row
	// of every body reuses it.
	vals []relation.Value
}

var wirePool = sync.Pool{New: func() any { return new(wireScan) }}

// fail records a body-level error at offset off. Not inlined, so that
// what it allocates is not charged to the allocation-free scanner.
//
//go:noinline
func (s *wireScan) fail(off int, msg string) {
	if s.err == nil {
		s.err = fmt.Errorf("borg: bad ingest body at offset %d: %s", off, msg)
	}
	s.i = len(s.b)
}

// peek returns the next byte after white space, 0 at the end.
//
//borg:noalloc
func (s *wireScan) peek() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// enter opens the array or object that end closes and reports whether
// it has a first element; more, whether another follows the one just
// scanned. Together they are the loop over any container.
//
//borg:noalloc
func (s *wireScan) enter(end byte) bool {
	s.i++
	if s.depth++; s.depth > wireDepth {
		s.fail(s.i, "nested too deeply")
	}
	return !s.leave(end)
}

//borg:noalloc
func (s *wireScan) more(end byte) bool {
	if s.leave(end) {
		return false
	}
	if s.peek() != ',' {
		s.fail(s.i, "want ',' or the end of the array or object")
		return false
	}
	s.i++
	return true
}

//borg:noalloc
func (s *wireScan) leave(end byte) bool {
	if s.peek() != end {
		return false
	}
	s.i++
	s.depth--
	return true
}

// body scans one op or an array of ops.
//
//borg:noalloc
func (s *wireScan) body() (array bool) {
	if array = s.peek() == '['; array {
		for next := s.enter(']'); next; next = s.more(']') {
			s.row()
		}
	} else {
		s.row()
	}
	if s.peek(); s.i < len(s.b) {
		s.fail(s.i, "data after the top-level value")
	}
	return array
}

// row scans one op: an object, or null for the op with every key unset,
// which is what encoding/json made of it. Keys match exactly, a repeated
// key's last value wins, and the value under any other key is skipped.
//
//borg:noalloc
func (s *wireScan) row() {
	row := wireRow{valN: -1, newN: -1}
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '{':
		for next := s.enter('}'); next; next = s.more('}') {
			switch k := s.bytes(s.key()); {
			case string(k) == "rel":
				s.name(&row.rel)
			case string(k) == "op":
				s.name(&row.op)
			case string(k) == "values":
				row.valLo, row.valN = s.cellsOf()
			case string(k) == "new":
				row.newLo, row.newN = s.cellsOf()
			default:
				s.value(false)
			}
		}
	default:
		s.mismatch("an op must be an object")
	}
	s.rows = append(s.rows, row)
}

// key scans an object key and the colon after it.
//
//borg:noalloc
func (s *wireScan) key() (k span) {
	if s.peek() != '"' {
		s.fail(s.i, "want an object key")
		return k
	}
	if k = s.str(); s.peek() != ':' {
		s.fail(s.i, "want ':' after an object key")
		return k
	}
	s.i++
	return k
}

// mismatch fails the body for a value of the wrong JSON type: with the
// syntax error if the value is not JSON at all, else with msg.
//
//borg:noalloc
func (s *wireScan) mismatch(msg string) {
	at := s.i
	s.value(false)
	s.fail(at, msg)
}

// name scans the value of "rel" or "op": a string; null leaves the field
// as it was, as encoding/json does for a string field.
//
//borg:noalloc
func (s *wireScan) name(dst *span) {
	switch s.peek() {
	case '"':
		*dst = s.str()
	case 'n':
		s.literal("null")
	default:
		s.mismatch(`"rel" and "op" must be strings`)
	}
}

// cellsOf scans the value of "values" or "new": an array of cells, or
// null, which unsets the key.
//
//borg:noalloc
func (s *wireScan) cellsOf() (lo, n int32) {
	switch s.peek() {
	case '[':
		lo = int32(len(s.cells))
		for next := s.enter(']'); next; next = s.more(']') {
			s.cells = append(s.cells, s.value(true))
		}
		return lo, int32(len(s.cells)) - lo
	case 'n':
		s.literal("null")
	default:
		s.mismatch(`"values" and "new" must be arrays`)
	}
	return 0, -1
}

// value scans any JSON value and returns it as a cell. convert says its
// numbers must fit float64: those of a cell, nested ones too, which
// encoding/json converted and so refused out of range, but not those
// under an unknown key, which it skipped.
//
//borg:noalloc
func (s *wireScan) value(convert bool) (c wireCell) {
	switch ch := s.peek(); ch {
	case '"':
		c.kind, c.text = cellStr, s.str()
	case 't':
		c.kind = cellBool
		s.literal("true")
	case 'f':
		c.kind = cellBool
		s.literal("false")
	case 'n':
		c.kind = cellNull
		s.literal("null")
	case '[':
		c.kind = cellArray
		for next := s.enter(']'); next; next = s.more(']') {
			s.value(convert)
		}
	case '{':
		c.kind = cellObject
		for next := s.enter('}'); next; next = s.more('}') {
			s.key()
			s.value(convert)
		}
	default:
		c.num = s.number(convert)
	}
	return c
}

//borg:noalloc
func (s *wireScan) literal(word string) {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		s.fail(s.i, "want true, false or null")
		return
	}
	s.i += len(word)
}

// number scans -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, the JSON
// number, and converts it if asked.
//
//borg:noalloc
func (s *wireScan) number(convert bool) float64 {
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := digits(b, j)
	ok := k > j && (b[j] != '0' || k == j+1)
	if ok && k < len(b) && b[k] == '.' {
		j = k + 1
		k = digits(b, j)
		ok = k > j
	}
	if ok && k < len(b) && b[k]|0x20 == 'e' {
		if j = k + 1; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k = digits(b, j)
		ok = k > j
	}
	if !ok {
		s.fail(k, "want a JSON value")
		return 0
	}
	text := b[s.i:k]
	s.i = k
	if !convert {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.fail(k-len(text), "number out of range")
	}
	return f
}

// digits returns the end of the run of decimal digits at b[j:].
//
//borg:noalloc
func digits(b []byte, j int) int {
	for j < len(b) && b[j]-'0' <= 9 {
		j++
	}
	return j
}

// str scans the string literal at s.i. A string of printable ASCII with
// no escape is a span of the body; any other is unquoted into s.text,
// byte for byte as encoding/json unquotes it: escapes are decoded, a
// surrogate pair becomes its rune, a lone surrogate or invalid UTF-8
// becomes U+FFFD.
//
//borg:noalloc
func (s *wireScan) str() span {
	b, j := s.b, s.i+1
	for ; j < len(b) && b[j] != '"' && b[j] != '\\' && b[j] >= ' ' && b[j] < utf8.RuneSelf; j++ {
	}
	if j < len(b) && b[j] == '"' {
		sp := span{lo: int32(s.i + 1), hi: int32(j)}
		s.i = j + 1
		return sp
	}
	lo := len(s.text)
	s.text = append(s.text, b[s.i+1:j]...)
	for j < len(b) {
		switch c := b[j]; {
		case c == '"':
			s.i = j + 1
			return span{lo: int32(lo), hi: int32(len(s.text)), unquoted: true}
		case c < ' ':
			s.fail(j, "control character in a string")
			return span{}
		case c == '\\':
			r := rune(-1)
			if j++; j < len(b) {
				if at := strings.IndexByte(`"\/bfnrt`, b[j]); at >= 0 {
					r = rune("\"\\/\b\f\n\r\t"[at])
				} else if b[j] == 'u' {
					r = hex4(b, j+1)
					j += 4
				}
			}
			if r < 0 {
				s.fail(j, "bad escape in a string")
				return span{}
			}
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if j+2 < len(b) && b[j+1] == '\\' && b[j+2] == 'u' {
					low = hex4(b, j+3)
				}
				if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
					j += 6
				}
			}
			s.text = utf8.AppendRune(s.text, r)
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			s.text = utf8.AppendRune(s.text, r)
			j += size
		}
	}
	s.fail(j, "unexpected end of body")
	return span{}
}

// hex4 decodes the four hex digits at b[i:], -1 if they are not there.
//
//borg:noalloc
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	u, err := strconv.ParseUint(string(b[i:i+4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(u)
}

// bytes returns the string a span names.
//
//borg:noalloc
func (s *wireScan) bytes(sp span) []byte {
	if sp.unquoted {
		return s.text[sp.lo:sp.hi]
	}
	return s.b[sp.lo:sp.hi]
}

// IngestJSON is the wire form of Insert, Delete and Update: body is one
// op object {"rel": R, "values": [...], "op": "insert"|"delete"|"update",
// "new": [...]} or a JSON array of them ("op" defaults to insert, "new"
// is the replacement row of an update; forceDelete makes every row a
// delete and refuses any other "op"). Keys match exactly, unknown keys
// are skipped, a repeated key's last value wins. A body that is not
// such JSON returns an error and enqueues nothing. Otherwise every row
// is attempted in order — values follow the Insert conventions, strings
// for categorical and numbers for continuous attributes — and the rows
// that could not be enqueued are reported in the result.
func (a ingestAPI) IngestJSON(body []byte, forceDelete bool) (IngestResult, error) {
	if len(body) > math.MaxInt32 {
		return IngestResult{}, fmt.Errorf("borg: ingest body of %d bytes is too large", len(body))
	}
	s := wirePool.Get().(*wireScan)
	*s = wireScan{b: body, rows: s.rows[:0], cells: s.cells[:0], text: s.text[:0], vals: s.vals[:0]}
	defer func() {
		s.b, s.err = nil, nil
		wirePool.Put(s)
	}()
	array := s.body()
	if s.err != nil {
		return IngestResult{}, s.err
	}
	res := IngestResult{Rows: len(s.rows), Array: array}
	for i := range s.rows { // phase 2
		if err := a.applyRow(s, &s.rows[i], forceDelete); err != nil {
			if res.Errors == nil {
				res.Errors = make([]error, res.Rows)
			}
			res.Errors[i] = err
		}
	}
	return res, nil
}

// applyRow resolves one row's op and relation, coerces its cells into
// the scan's row and enqueues it.
func (a ingestAPI) applyRow(s *wireScan, row *wireRow, forceDelete bool) error {
	op, name := s.bytes(row.op), s.bytes(row.rel)
	switch {
	case forceDelete && len(op) > 0 && string(op) != "delete":
		return fmt.Errorf("op %q not allowed where every row is a delete", op)
	case len(op) > 0 && string(op) != "insert" && string(op) != "delete" && string(op) != "update":
		return fmt.Errorf("unknown op %q (want insert, delete, or update)", op)
	}
	update := !forceDelete && string(op) == "update"
	if update && row.newN < 0 {
		return fmt.Errorf("update for %s is missing the \"new\" values", name)
	}
	var r *relation.Relation
	for _, known := range a.rels {
		if known.Name == string(name) {
			r = known
			break
		}
	}
	if r == nil {
		return fmt.Errorf("borg: unknown relation %s", name)
	}
	vals, err := coerceCells(s, r, row.valLo, row.valN, s.vals[:0])
	if err == nil && update {
		vals, err = coerceCells(s, r, row.newLo, row.newN, vals)
	}
	if s.vals = vals; err != nil {
		return err
	}
	k := r.NumAttrs()
	t := ivm.Tuple{Rel: r.Name, Values: vals[:k]}
	switch {
	case update:
		return a.sink.Update(t, ivm.Tuple{Rel: r.Name, Values: vals[k:]})
	case forceDelete || string(op) == "delete":
		return a.sink.Delete(t)
	}
	return a.sink.Insert(t)
}

// coerceCells appends cells lo..lo+n, one row of r, to dst.
func coerceCells(s *wireScan, r *relation.Relation, lo, n int32, dst []relation.Value) ([]relation.Value, error) {
	if n = max(n, 0); int(n) != r.NumAttrs() {
		return dst, arityErr(r, int(n))
	}
	for i, c := range s.cells[lo : lo+n] {
		in := cell{kind: min(c.kind, cellOther), num: c.num}
		if c.kind == cellStr {
			in.raw = s.bytes(c.text)
		}
		v, refusal := coerceCell(r, i, in)
		if refusal != "" {
			return dst, fmt.Errorf(refusal, r.Attrs()[i].Name, cellGot[c.kind])
		}
		dst = append(dst, v)
	}
	return dst, nil
}
