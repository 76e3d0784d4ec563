package depmodel

import (
	"strings"
	"testing"
	"testing/quick"
)

func dep(kind Kind, srcComp, srcParam, tgtComp, tgtParam, rel string) Dependency {
	return Dependency{
		Kind:       kind,
		Source:     ParamRef{Component: srcComp, Param: srcParam},
		Target:     ParamRef{Component: tgtComp, Param: tgtParam},
		Constraint: Constraint{Relation: rel},
	}
}

func TestKindCategories(t *testing.T) {
	want := map[Kind]Category{
		SDDataType: SD, SDValueRange: SD,
		CPDControl: CPD, CPDValue: CPD,
		CCDControl: CCD, CCDValue: CCD, CCDBehavioral: CCD,
	}
	for k, c := range want {
		if k.Category() != c {
			t.Errorf("%s category = %s, want %s", k, k.Category(), c)
		}
		if !k.Valid() {
			t.Errorf("%s should be valid", k)
		}
	}
	if Kind(99).Valid() || Category(9).Valid() {
		t.Error("invalid kinds/categories reported valid")
	}
	if len(AllKinds()) != 7 {
		t.Errorf("AllKinds = %d", len(AllKinds()))
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("round trip %s -> %s", k, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestValidateRules(t *testing.T) {
	cases := []struct {
		name string
		d    Dependency
		ok   bool
	}{
		{"valid SD", dep(SDValueRange, "mke2fs", "blocksize", "", "", ""), true},
		{"SD with target", dep(SDValueRange, "mke2fs", "blocksize", "mke2fs", "x", ""), false},
		{"SD without param", dep(SDDataType, "mke2fs", "", "", "", ""), false},
		{"valid CPD", dep(CPDControl, "mke2fs", "a", "mke2fs", "b", "control"), true},
		{"CPD crossing components", dep(CPDControl, "mke2fs", "a", "mount", "b", "control"), false},
		{"valid CCD", dep(CCDValue, "resize2fs", "size", "mke2fs", "blocks", "le"), true},
		{"CCD same component", dep(CCDValue, "mke2fs", "a", "mke2fs", "b", "le"), false},
		{"behavioral CCD empty source param", dep(CCDBehavioral, "resize2fs", "", "mke2fs", "p", "behavioral"), true},
		{"non-behavioral CCD empty source param", dep(CCDValue, "resize2fs", "", "mke2fs", "p", "le"), false},
		{"invalid kind", Dependency{Kind: Kind(42), Source: ParamRef{Component: "x", Param: "y"}}, false},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSetDedupByKey(t *testing.T) {
	s := NewSet()
	d1 := dep(CPDControl, "mke2fs", "a", "mke2fs", "b", "control")
	d1.Evidence = []string{"f.c:1"}
	d2 := d1
	d2.Evidence = []string{"f.c:9"}
	if !s.Add(d1) {
		t.Fatal("first add should insert")
	}
	if s.Add(d2) {
		t.Fatal("duplicate add should merge, not insert")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	got := s.Deps()[0]
	if len(got.Evidence) != 2 {
		t.Errorf("evidence not merged: %v", got.Evidence)
	}
	if !s.Contains(d1) || !s.ContainsKey(d1.Key()) {
		t.Error("contains checks failed")
	}
}

func TestSetCounts(t *testing.T) {
	s := NewSet()
	s.Add(dep(SDDataType, "a", "p1", "", "", ""))
	s.Add(dep(SDValueRange, "a", "p1", "", "", ""))
	s.Add(dep(CPDControl, "a", "p1", "a", "p2", "control"))
	s.Add(dep(CCDBehavioral, "b", "", "a", "p1", "behavioral"))
	cats := s.CountByCategory()
	if cats[SD] != 2 || cats[CPD] != 1 || cats[CCD] != 1 {
		t.Errorf("categories = %v", cats)
	}
	kinds := s.CountByKind()
	if kinds[SDDataType] != 1 || kinds[CCDBehavioral] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestSortedStable(t *testing.T) {
	s := NewSet()
	s.Add(dep(CCDBehavioral, "z", "", "a", "p", "behavioral"))
	s.Add(dep(SDDataType, "m", "beta", "", "", ""))
	s.Add(dep(SDDataType, "m", "alpha", "", "", ""))
	out := s.Sorted()
	if out[0].Source.Param != "alpha" || out[1].Source.Param != "beta" {
		t.Errorf("sorted order wrong: %v", out)
	}
	if out[2].Kind != CCDBehavioral {
		t.Errorf("kind ordering wrong: %v", out[2])
	}
}

func TestFileEncodeDecode(t *testing.T) {
	f := &File{
		Ecosystem: "ext4",
		Scenario:  "test",
		Dependencies: []Dependency{
			dep(SDValueRange, "mke2fs", "blocksize", "", "", ""),
			dep(CCDValue, "resize2fs", "size", "mke2fs", "blocks", "le"),
		},
	}
	f.Dependencies[0].Constraint.Min = I64(1024)
	f.Dependencies[0].Constraint.Max = I64(65536)
	blob, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "sd-value-range") {
		t.Error("kind not serialized as text")
	}
	back, err := DecodeFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario != "test" || len(back.Dependencies) != 2 {
		t.Fatalf("decoded = %+v", back)
	}
	if *back.Dependencies[0].Constraint.Min != 1024 {
		t.Errorf("min = %v", back.Dependencies[0].Constraint.Min)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	f := &File{Dependencies: []Dependency{{Kind: Kind(9)}}}
	if _, err := f.Encode(); err == nil {
		t.Fatal("invalid dependency encoded")
	}
	if _, err := DecodeFile([]byte(`{"dependencies":[{"kind":"sd-data-type"}]}`)); err == nil {
		t.Fatal("invalid dependency decoded")
	}
	if _, err := DecodeFile([]byte(`{`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestKeyUniquenessProperty(t *testing.T) {
	// Two dependencies differing in any identity field must have
	// different keys; identical identity fields must collide.
	f := func(c1, p1, c2, p2 string, kindSel uint8, sameKind bool) bool {
		if c1 == "" || p1 == "" || c2 == "" || p2 == "" {
			return true
		}
		kinds := AllKinds()
		kA := kinds[int(kindSel)%len(kinds)]
		kB := kA
		if !sameKind {
			kB = kinds[(int(kindSel)+1)%len(kinds)]
		}
		dA := Dependency{Kind: kA,
			Source: ParamRef{Component: c1, Param: p1},
			Target: ParamRef{Component: c2, Param: p2}}
		dB := Dependency{Kind: kB,
			Source: ParamRef{Component: c1, Param: p1},
			Target: ParamRef{Component: c2, Param: p2}}
		if sameKind {
			return dA.Key() == dB.Key()
		}
		return dA.Key() != dB.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetAddAllIdempotentProperty(t *testing.T) {
	f := func(params []string) bool {
		s := NewSet()
		var deps []Dependency
		for _, p := range params {
			if p == "" {
				continue
			}
			deps = append(deps, dep(SDDataType, "c", p, "", "", ""))
		}
		first := s.AddAll(deps)
		second := s.AddAll(deps)
		_ = first
		return second == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamRefOrdering(t *testing.T) {
	a := ParamRef{Component: "a", Param: "z"}
	b := ParamRef{Component: "b", Param: "a"}
	if !a.Less(b) || b.Less(a) {
		t.Error("component ordering wrong")
	}
	c := ParamRef{Component: "a", Param: "a"}
	if !c.Less(a) {
		t.Error("param ordering wrong")
	}
	if a.String() != "a.z" {
		t.Errorf("string = %q", a.String())
	}
}
