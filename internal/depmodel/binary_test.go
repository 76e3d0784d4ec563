package depmodel

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// handSet covers every field the binary encoding carries: both bounds,
// one bound, extreme and negative bounds, Enum, Via, Evidence shared
// between dependencies, SD dependencies with an empty Target, and a
// CCDBehavioral dependency with an empty Source.Param.
func handSet() *Set {
	s := NewSet()
	bs := dep(SDValueRange, "mke2fs", "blocksize", "", "", "")
	bs.Constraint.Min, bs.Constraint.Max = I64(1024), I64(65536)
	bs.Constraint.Expr = "1024 <= blocksize <= 65536"
	bs.Evidence = []string{"mke2fs.c:10", "mke2fs.c:12"}
	s.Add(bs)
	lo := dep(SDValueRange, "resize2fs", "size", "", "", "")
	lo.Constraint.Min = I64(-1)
	s.Add(lo)
	hi := dep(SDValueRange, "e2fsck", "passes", "", "", "")
	hi.Constraint.Min, hi.Constraint.Max = I64(math.MinInt64), I64(math.MaxInt64)
	s.Add(hi)
	en := dep(SDDataType, "mount", "errors", "", "", "")
	en.Constraint.DataType = "string"
	en.Constraint.Enum = []string{"continue", "remount-ro", "panic"}
	s.Add(en)
	s.Add(dep(CPDControl, "mke2fs", "meta_bg", "mke2fs", "resize_inode", "conflicts"))
	bh := dep(CCDBehavioral, "e2fsck", "", "mke2fs", "blocksize", "behavioral")
	bh.Via = []string{"ext2_super_block.s_log_block_size"}
	bh.Evidence = []string{"e2fsck.c:3", "mke2fs.c:10"}
	s.Add(bh)
	return s
}

func TestSetBinaryRoundTrip(t *testing.T) {
	for name, s := range map[string]*Set{"empty": NewSet(), "hand": handSet()} {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		var back Set
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(s.Deps(), back.Deps()) {
			t.Errorf("%s: deps differ after round trip:\nwant %+v\ngot  %+v", name, s.Deps(), back.Deps())
		}
		for _, d := range s.Deps() {
			if !back.ContainsKey(d.Key()) {
				t.Errorf("%s: decoded set lost %s from its index", name, d.Key())
			}
		}
	}
}

func TestMarshalBinaryRefusesInvalidKind(t *testing.T) {
	s := NewSet()
	s.Add(Dependency{Kind: Kind(9), Source: ParamRef{Component: "a", Param: "p"}})
	if _, err := s.MarshalBinary(); err == nil {
		t.Error("invalid kind encoded")
	}
}

func TestUnmarshalBinaryLeavesSetOnRefusal(t *testing.T) {
	s := handSet()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := s.Deps()
	if err := s.UnmarshalBinary(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated encoding decoded")
	}
	if !reflect.DeepEqual(s.Deps(), want) {
		t.Error("a refused decode changed the set")
	}
}

// reuse encodes n SD dependencies that share one 64 KiB source
// component and each name their own parameter: a payload of about 14n
// bytes plus the table, whose strings expand to 64 KiB per dependency.
func reuse(n int) []byte {
	param := func(i int) string { return "p" + strconv.Itoa(i) }
	// First-use order: the component, the first parameter, the empty
	// string every other field uses, then the remaining parameters.
	table := []string{strings.Repeat("c", 64<<10), param(0), ""}
	for i := 1; i < n; i++ {
		table = append(table, param(i))
	}
	b := binary.AppendUvarint([]byte{setFormat}, uint64(len(table)))
	for _, str := range table {
		b = binary.AppendUvarint(b, uint64(len(str)))
		b = append(b, str...)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		p := uint64(1)
		if i > 0 {
			p = uint64(2 + i)
		}
		b = append(b, byte(SDDataType), 0)
		b = binary.AppendUvarint(b, p)
		b = append(b, 2, 2, 2, 2, 2, 0, 0, 0, 0)
	}
	return b
}

// TestUnmarshalBinaryBoundsAllocation: a payload is refused before it
// makes the decoder allocate much more than its own length, whether it
// claims more items than it carries (every count is checked against
// the bytes left before anything is sized by it) or reuses one long
// string in more dependencies than the expansion bound allows.
func TestUnmarshalBinaryBoundsAllocation(t *testing.T) {
	pad := func(b []byte) []byte { return append(b, make([]byte, 16-len(b))...) }
	huge := func(b []byte) []byte { return binary.AppendUvarint(b, 1<<31) }
	// A long component shared by a few dependencies is within the bound.
	if err := new(Set).UnmarshalBinary(reuse(10)); err != nil {
		t.Fatalf("10 dependencies sharing a component: %v", err)
	}
	cases := map[string][]byte{
		// An empty table, then 2^31 dependencies in 16 bytes.
		"dependencies": pad(huge([]byte{setFormat, 0})),
		"strings":      pad(huge([]byte{setFormat})),
		// Table ["a"], one SD dependency whose Enum claims 2^31 entries.
		"enum": huge([]byte{setFormat, 1, 1, 'a', 1, byte(SDDataType), 0, 0, 0, 0, 0, 0, 0, 0}),
		// About 1 MB whose 50,000 dedup keys would copy the 64 KiB
		// component each: 3.3 GB.
		"reused string": reuse(50000),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := new(Set).UnmarshalBinary(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte payload decoded", name, len(b))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+4*uint64(len(b)) {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", name, len(b), got)
		}
	}
}

// TestUnmarshalBinaryRefusesNonCanonical: the decoder accepts only what
// MarshalBinary writes. Each case changes one thing about a hand-built
// encoding of table ["a", "p", ""] and the SD dependency a.p, which
// decodes, so each refusal is the change's doing.
func TestUnmarshalBinaryRefusesNonCanonical(t *testing.T) {
	sd := byte(SDDataType)
	dep := []byte{sd, 0, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0}
	valid := append([]byte{setFormat, 3, 1, 'a', 1, 'p', 0, 1}, dep...)
	var s Set
	if err := s.UnmarshalBinary(valid); err != nil || s.Len() != 1 {
		t.Fatalf("hand-built encoding: len %d, err %v", s.Len(), err)
	}
	cases := map[string][]byte{
		"padded table count": append([]byte{setFormat, 0x83, 0, 1, 'a', 1, 'p', 0, 1}, dep...),
		"padded index":       {setFormat, 3, 1, 'a', 1, 'p', 0, 1, sd, 0x80, 0, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0},
		"padded bound": {setFormat, 3, 1, 'a', 1, 'p', 0, 1, byte(SDValueRange), 0, 1, 2, 2, 2, 2, 2,
			boundMin, 0x82, 0, 0, 0, 0},
		// Every entry is used, and p.a is valid, but "p" comes first.
		"index ahead of first use": {setFormat, 3, 1, 'a', 1, 'p', 0, 1, sd, 1, 0, 2, 2, 1, 2, 2, 0, 0, 0, 0},
		"unused table string":      append([]byte{setFormat, 4, 1, 'a', 1, 'p', 0, 1, 'x', 1}, dep...),
		// The repeat of "a" is used, as evidence, so only the repeat is wrong.
		"repeated table string": {setFormat, 4, 1, 'a', 1, 'p', 0, 1, 'a', 1, sd, 0, 1, 2, 2, 2, 2, 2, 0, 0, 0, 1, 3},
		"repeated dependency":   append(append([]byte{setFormat, 3, 1, 'a', 1, 'p', 0, 2}, dep...), dep...),
	}
	for name, b := range cases {
		before := s.Deps()
		if err := s.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded %d dependencies", name, s.Len())
		} else if !reflect.DeepEqual(s.Deps(), before) {
			t.Errorf("%s: a refused decode changed the set", name)
		}
	}
}

// FuzzSetUnmarshalBinary: decoding never panics, and the encoding is
// canonical: a payload the decoder accepts is exactly what MarshalBinary
// writes for the decoded set, so that re-encoding decodes to the same
// dependencies.
func FuzzSetUnmarshalBinary(f *testing.F) {
	hand := handSet()
	seeds := []*Set{NewSet(), hand}
	for _, d := range hand.Deps() {
		one := NewSet()
		one.Add(d)
		seeds = append(seeds, one)
	}
	for _, s := range seeds {
		blob, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Set
		if s.UnmarshalBinary(b) != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted set does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted a payload MarshalBinary would not write:\ngot  %x\nre-encoded %x", b, again)
		}
	})
}
