package engine

// Fast JSON decoding of PageTableState, the bulk of every engine
// checkpoint: one number per page per column. encoding/json decodes
// these columns through reflection, element by element; this decoder
// walks the same bytes once and parses each number with the strconv
// call encoding/json itself makes. It only recognises the shape
// json.Marshal writes (DESIGN.md "Checkpoint format") and hands every
// other input to encoding/json, so what it accepts, rejects and merges
// is exactly what encoding/json would.

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// pageTableJSON is PageTableState without methods: json.Unmarshal into it
// is the reference decoder.
type pageTableJSON PageTableState

// UnmarshalJSON decodes a page table. The fast path accepts a compact
// object whose keys are exactly PageTableState's JSON names and whose
// values are integers or arrays of numbers. Anything else, such as
// whitespace, escapes, differently-cased or unknown keys, null, or a
// number the column's type cannot hold, goes to encoding/json instead,
// including every error. Fields absent from data keep their value, as
// encoding/json leaves them. A type error names pageTableJSON, or the
// enclosing struct when the table is a field, not PageTableState:
// encoding/json reports a method's error at once, with its own context.
func (s *PageTableState) UnmarshalJSON(data []byte) error {
	// Decode into a copy and commit only on success: the fallback must
	// start from the state the caller passed in.
	t := *s
	d := pageDecoder{data: data}
	if d.object(&t) {
		*s = t
		return nil
	}
	return json.Unmarshal(data, (*pageTableJSON)(s))
}

// pageTableColumns decodes the value of each PageTableState JSON key.
// Every column gets a freshly allocated slice, so a decode that fails
// halfway has not touched the caller's arrays.
var pageTableColumns = map[string]func(d *pageDecoder, t *PageTableState) bool{
	"len": func(d *pageDecoder, t *PageTableState) bool {
		v, ok := signed[int](d.number())
		t.Len = v
		return ok
	},
	"id":            func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.ID, signed) },
	"vpn":           func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.VPN, unsigned) },
	"pid":           func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.PID, signed) },
	"tier":          func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Tier, signed) },
	"flags":         func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Flags, unsigned) },
	"size":          func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Size, signed) },
	"prot_ts":       func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.ProtTS, signed) },
	"last_fault":    func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.LastFault, signed) },
	"demote_ts":     func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.DemoteTS, signed) },
	"promote_ts":    func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.PromoteTS, signed) },
	"abit_ts":       func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.ABitTS, signed) },
	"meta":          func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Meta, unsigned) },
	"meta2":         func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Meta2, unsigned) },
	"fault_seq":     func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.FaultSeq, unsigned) },
	"w":             func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.W, float) },
	"rf":            func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.RF, float) },
	"ever_slow":     func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.EverSlow, signed) },
	"ever_promoted": func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.EverPromoted, signed) },
	"shadowed":      func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.Shadowed, signed) },
	"shadow_ts":     func(d *pageDecoder, t *PageTableState) bool { return column(d, &t.ShadowTS, signed) },
}

// pageDecoder is a cursor over compact JSON. Every method reports false,
// rather than an error, on input outside the recognised shape.
type pageDecoder struct {
	data []byte
	pos  int
}

// object decodes a whole page-table object into t.
func (d *pageDecoder) object(t *PageTableState) bool {
	if !d.eat('{') {
		return false
	}
	if !d.eat('}') {
		for {
			key, ok := d.key()
			if !ok {
				return false
			}
			dec := pageTableColumns[string(key)]
			if dec == nil || !dec(d, t) {
				return false
			}
			if d.eat('}') {
				break
			}
			if !d.eat(',') {
				return false
			}
		}
	}
	return d.pos == len(d.data)
}

// eat consumes c if it is the next byte.
func (d *pageDecoder) eat(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key consumes `"name":` and returns name. A name holding an escape
// comes back with its backslash and matches no column.
func (d *pageDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.data[d.pos:], '"')
	if n < 0 {
		return nil, false
	}
	key := d.data[d.pos : d.pos+n]
	d.pos += n + 1
	return key, d.eat(':')
}

// number consumes one JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its bytes, or nil when the next bytes are not one.
func (d *pageDecoder) number() []byte {
	start := d.pos
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return nil
	}
	if d.pos == len(d.data) || d.data[d.pos] == ',' || d.data[d.pos] == ']' {
		return d.data[start:d.pos] // an integer, the common case
	}
	if d.eat('.') && d.digits() == 0 {
		return nil
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil
		}
	}
	return d.data[start:d.pos]
}

// digits consumes a run of decimal digits and returns its length.
func (d *pageDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// column decodes an array of numbers into a fresh slice of exactly its
// length, converting each with parse.
func column[T any](d *pageDecoder, dst *[]T, parse func([]byte) (T, bool)) bool {
	if !d.eat('[') {
		return false
	}
	n := 0
	if end := bytes.IndexByte(d.data[d.pos:], ']'); end > 0 {
		n = bytes.Count(d.data[d.pos:d.pos+end], []byte{','}) + 1
	}
	col := make([]T, 0, n)
	if !d.eat(']') {
		for {
			v, ok := parse(d.number())
			if !ok {
				return false
			}
			col = append(col, v)
			if d.pos == len(d.data) {
				return false
			}
			c := d.data[d.pos]
			d.pos++
			if c == ']' {
				break
			}
			if c != ',' {
				return false
			}
		}
	}
	*dst = col
	return true
}

// signed, unsigned and float convert one number token the way
// encoding/json does for a field of type T: the same strconv call, then
// the same overflow check for T's width.
func signed[T ~int | ~int32 | ~int64](tok []byte) (T, bool) {
	n, err := strconv.ParseInt(string(tok), 10, 64)
	v := T(n)
	return v, err == nil && int64(v) == n
}

func unsigned[T ~uint16 | ~uint64](tok []byte) (T, bool) {
	n, err := strconv.ParseUint(string(tok), 10, 64)
	v := T(n)
	return v, err == nil && uint64(v) == n
}

func float(tok []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}
