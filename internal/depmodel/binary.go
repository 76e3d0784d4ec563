package depmodel

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding of a Set: the payload of internal/depstore's scenario
// records, the only records a warm start decodes. The layout is built
// for one reflection-free pass: every distinct string is stored once,
// in a table the dependencies index into.
//
//	set:   format (u8, setFormat) | table | uvarint n | dep × n
//	table: uvarint m | (uvarint len | bytes) × m
//	dep:   kind (u8)
//	       | source component | source param | target component
//	       | target param | data type | relation | expr  (uvarint indices)
//	       | bounds (u8: boundMin, boundMax) | varint min? | varint max?
//	       | enum | via | evidence       (uvarint count | index × count)
//
// Signed values are zig-zag varints. An empty list decodes as nil, as
// the fields' omitempty JSON form does.
//
// The encoding is canonical: every varint is minimal, and the table
// holds each string the dependencies use exactly once, in order of
// first use. The decoder refuses anything else, so a payload it accepts
// is byte for byte what MarshalBinary writes for the decoded set. That
// keeps maxExpansion, a multiple of the payload's length, a property of
// the set rather than of padding: an accepted set re-encodes to the
// same payload, which is accepted again.

// setFormat is the leading byte of a Set's binary encoding; change it
// whenever the layout changes.
const setFormat byte = 1

// maxExpansion bounds a decoded set's strings, counted at every use, as
// a multiple of the payload's length. The table stores a string once
// however many dependencies use it, so without a bound a small payload
// could make the dedup keys, or anything that renders the set, copy one
// long string per use. The corpus's scenario sets expand about 1×.
const maxExpansion = 16

// Bits of a dependency's bounds byte.
const (
	boundMin byte = 1 << iota
	boundMax
)

// minDepBytes is the smallest encoded dependency: the kind byte, seven
// one-byte indices, the bounds byte and three empty list counts.
const minDepBytes = 1 + 7 + 1 + 3

// MarshalBinary encodes the set in insertion order. Like
// Kind.MarshalText it refuses an invalid kind; it checks nothing else.
func (s *Set) MarshalBinary() ([]byte, error) {
	idx := make(map[string]uint64)
	var table []string
	ref := func(b []byte, str string) []byte {
		i, ok := idx[str]
		if !ok {
			i = uint64(len(table))
			idx[str] = i
			table = append(table, str)
		}
		return binary.AppendUvarint(b, i)
	}

	body := binary.AppendUvarint(nil, uint64(len(s.deps)))
	for _, d := range s.deps {
		if !d.Kind.Valid() {
			return nil, fmt.Errorf("depmodel: invalid kind %d", uint8(d.Kind))
		}
		body = append(body, byte(d.Kind))
		c := &d.Constraint
		for _, str := range [...]string{
			d.Source.Component, d.Source.Param,
			d.Target.Component, d.Target.Param,
			c.DataType, c.Relation, c.Expr,
		} {
			body = ref(body, str)
		}
		var bounds byte
		if c.Min != nil {
			bounds |= boundMin
		}
		if c.Max != nil {
			bounds |= boundMax
		}
		body = append(body, bounds)
		if c.Min != nil {
			body = binary.AppendVarint(body, *c.Min)
		}
		if c.Max != nil {
			body = binary.AppendVarint(body, *c.Max)
		}
		for _, list := range [...][]string{c.Enum, d.Via, d.Evidence} {
			body = binary.AppendUvarint(body, uint64(len(list)))
			for _, str := range list {
				body = ref(body, str)
			}
		}
	}

	out := binary.AppendUvarint([]byte{setFormat}, uint64(len(table)))
	for _, str := range table {
		out = binary.AppendUvarint(out, uint64(len(str)))
		out = append(out, str...)
	}
	return append(out, body...), nil
}

// UnmarshalBinary replaces s with the set b encodes. It refuses an
// unknown format byte, truncation, trailing bytes, an encoding
// MarshalBinary would not write, an out-of-range string index, strings
// that expand past maxExpansion times the payload, an invalid
// dependency and a repeated one, and leaves s unchanged when it does.
// Every dependency is validated and inserted with Add in encoded
// order; a repeat is refused rather than merged, since MarshalBinary
// never writes two dependencies with the same Key. Every count is
// checked against the bytes left before anything is sized by it, and
// no dependency is keyed until the whole payload has been read within
// its expansion bound, so what the decoder allocates grows with the
// payload's length, never with a count or a reuse the payload claims.
func (s *Set) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != setFormat {
		return fmt.Errorf("depmodel: binary set has no known format byte")
	}
	d := decoder{b: b, off: 1, budget: maxExpansion * len(b)}
	d.readTable()
	n := d.count(minDepBytes)
	var deps []Dependency
	for i := 0; i < n && d.err == nil; i++ {
		deps = append(deps, d.dependency())
	}
	if d.err == nil && d.used < len(d.table) {
		d.fail("%d of %d table strings unused", len(d.table)-d.used, len(d.table))
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("depmodel: binary set has %d trailing bytes", len(b)-d.off)
	}
	// Add reuses deps' array: the i-th insertion writes index i.
	out := Set{deps: deps[:0], seen: make(map[string]int, len(deps))}
	for i, dep := range deps {
		if err := dep.Validate(); err != nil {
			return fmt.Errorf("depmodel: binary set dependency %d: %w", i, err)
		}
		if !out.Add(dep) {
			return fmt.Errorf("depmodel: binary set dependency %d repeats an earlier one", i)
		}
	}
	*s = out
	return nil
}

// decoder reads a binary set. Its first failure sticks: later reads
// return zero values and the caller checks err once per dependency.
type decoder struct {
	b     []byte
	off   int
	err   error
	table []string
	// used counts the table entries referenced so far: an index names
	// one of them or table[used], the first use of the next entry.
	used int
	// budget is how many more string bytes, counted at every use, the
	// dependencies may reference.
	budget int
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("depmodel: binary set at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.b)
}

func (d *decoder) byte() byte {
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// uvarint reads a minimal uvarint: a padded one, ending in a zero
// byte, is refused like a truncated one.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("truncated, overflowing or padded varint")
		return 0
	}
	d.off += n
	return v
}

// varint reads a zig-zag varint, as binary.Varint does.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads the length of a run of items that each take at least
// size bytes, refusing one the bytes left cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if left := uint64(len(d.b) - d.off); n > left/uint64(size) {
		d.fail("count %d does not fit in %d bytes", n, left)
		return 0
	}
	return int(n)
}

// readTable reads the string table into one string allocation that the
// entries slice: a first pass bounds every length, a second slices and
// refuses a string the table already holds.
func (d *decoder) readTable() {
	n := d.count(1)
	start := d.off
	for i := 0; i < n; i++ {
		l := d.uvarint()
		if l > uint64(len(d.b)-d.off) {
			d.fail("string of %d bytes overruns the payload", l)
		}
		if d.err != nil {
			return
		}
		d.off += int(l)
	}
	blob := string(d.b[start:d.off])
	table := make([]string, n)
	have := make(map[string]struct{}, n)
	p := 0
	for i := range table {
		l, k := binary.Uvarint(d.b[start+p:])
		p += k
		table[i] = blob[p : p+int(l)]
		p += int(l)
		if _, ok := have[table[i]]; ok {
			d.fail("table string %d repeats an earlier one", i)
			return
		}
		have[table[i]] = struct{}{}
	}
	d.table = table
}

func (d *decoder) str() string {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i > uint64(d.used) || i >= uint64(len(d.table)) {
		d.fail("string index %d is neither used nor next in a %d-entry table", i, len(d.table))
		return ""
	}
	if i == uint64(d.used) {
		d.used++
	}
	str := d.table[i]
	if d.budget -= len(str); d.budget < 0 {
		d.fail("strings expand past %d times the payload's %d bytes", maxExpansion, len(d.b))
		return ""
	}
	return str
}

func (d *decoder) list() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) dependency() Dependency {
	var dep Dependency
	dep.Kind = Kind(d.byte())
	c := &dep.Constraint
	for _, p := range [...]*string{
		&dep.Source.Component, &dep.Source.Param,
		&dep.Target.Component, &dep.Target.Param,
		&c.DataType, &c.Relation, &c.Expr,
	} {
		*p = d.str()
	}
	bounds := d.byte()
	if bounds&^(boundMin|boundMax) != 0 {
		d.fail("bounds byte %#x", bounds)
	}
	if bounds&boundMin != 0 {
		v := d.varint()
		c.Min = &v
	}
	if bounds&boundMax != 0 {
		v := d.varint()
		c.Max = &v
	}
	c.Enum = d.list()
	dep.Via = d.list()
	dep.Evidence = d.list()
	return dep
}
