package depstore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fsdep/internal/depmodel"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/taint"
)

const recordSrc = `
struct sb { u32 a; };
void writer(struct sb *s, int conf) {
	s->a = conf;
}
void reader(struct sb *s, int other) {
	int x;
	int both;
	x = s->a;
	both = x + other;
	if (x > 2 || other < 1) {
		fail();
	}
}`

func compileT(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := minicc.Parse("rec.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func runT(t *testing.T, p *ir.Program) *taint.Result {
	t.Helper()
	return taint.Run(p, []taint.Seed{
		{Param: "conf", Func: "writer", Var: "conf"},
		{Param: "other", Func: "reader", Var: "other"},
	}, taint.Options{})
}

func TestTaintRecordRoundTrip(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	s := openT(t)
	key := Key("comp-hash", "sig")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	flushT(t, s)
	got, ok := LoadTaint(s, key, p)
	if !ok {
		t.Fatal("load missed a just-saved record")
	}
	// Sites carry rehydrated AST expressions: they must be the branch
	// conditions of the program the load ran against.
	if len(got.Sites) != len(res.Sites) {
		t.Fatalf("sites = %d, want %d", len(got.Sites), len(res.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i].Expr != res.Sites[i].Expr {
			t.Errorf("site %d: expression not rehydrated to the program's branch AST", i)
		}
	}
	// Every fact map must survive semantically: compare via canonical
	// JSON, which normalizes the SeedSet word-slice representation.
	for name, pair := range map[string][2]any{
		"Taint":       {res.Taint, got.Taint},
		"FieldWrites": {res.FieldWrites, got.FieldWrites},
		"FieldReads":  {res.FieldReads, got.FieldReads},
		"Traces":      {res.Traces, got.Traces},
		"Seeds":       {res.Seeds, got.Seeds},
		"Multi":       {res.Multi, got.Multi},
	} {
		want, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(have) {
			t.Errorf("%s differs after round trip:\nwant %s\ngot  %s", name, want, have)
		}
	}
	// Site taint facts (beyond the Expr pointer).
	for i := range got.Sites {
		if !reflect.DeepEqual(got.Sites[i].Keys, res.Sites[i].Keys) ||
			!reflect.DeepEqual(got.Sites[i].PlainFirstKeys, res.Sites[i].PlainFirstKeys) ||
			!reflect.DeepEqual(got.Sites[i].CanonOf, res.Sites[i].CanonOf) {
			t.Errorf("site %d metadata differs after round trip", i)
		}
	}
}

func TestTaintRecordSkipsTruncatedRuns(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	res.BudgetErr = &taint.BudgetExceeded{Budget: 1, Pending: 1}
	s := openT(t)
	key := Key("trunc")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	flushT(t, s)
	if _, ok := s.Get(KindTaint, key); ok {
		t.Fatal("truncated run was persisted")
	}
}

func TestTaintRecordRefusesForeignProgram(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	s := openT(t)
	key := Key("foreign")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	flushT(t, s)
	// A program without the recorded branch positions cannot rehydrate
	// the sites; the load must refuse, not fabricate.
	other := compileT(t, `
void unrelated(int v) {
	int w;
	w = v;
}`)
	if _, ok := LoadTaint(s, key, other); ok {
		t.Fatal("record rehydrated against a foreign program")
	}
	if st := s.Stats(); st.Invalidations == 0 {
		t.Error("refused rehydration not counted as invalidation")
	}
}

func TestScenarioRecordRoundTrip(t *testing.T) {
	set := depmodel.NewSet()
	set.Add(depmodel.Dependency{
		Kind:       depmodel.SDValueRange,
		Source:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Min: depmodel.I64(1024), Expr: "blocksize >= 1024"},
		Evidence:   []string{"mke2fs.c:3"},
	})
	set.Add(depmodel.Dependency{
		Kind:       depmodel.CCDBehavioral,
		Source:     depmodel.ParamRef{Component: "e2fsck"},
		Target:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Relation: "behavioral", Expr: "depends"},
		Via:        []string{"ext2_super_block.s_log_block_size"},
	})
	s := openT(t)
	key := Key("scenario")
	if err := SaveScenario(s, key, set); err != nil {
		t.Fatalf("save: %v", err)
	}
	flushT(t, s)
	got, ok := LoadScenario(s, key)
	if !ok {
		t.Fatal("load missed a just-saved scenario")
	}
	if !reflect.DeepEqual(set.Deps(), got.Deps()) {
		t.Errorf("deps differ after round trip:\nwant %+v\ngot  %+v", set.Deps(), got.Deps())
	}
}

func TestScenarioRecordRefusesInvalidDeps(t *testing.T) {
	s := openT(t)
	key := Key("invalid-scenario")
	// An SD dependency with a target has a valid kind, so it encodes;
	// only the decoder's Validate can refuse it, as a counted miss.
	set := depmodel.NewSet()
	set.Add(depmodel.Dependency{
		Kind:   depmodel.SDDataType,
		Source: depmodel.ParamRef{Component: "a", Param: "p"},
		Target: depmodel.ParamRef{Component: "b", Param: "q"},
	})
	if err := SaveScenario(s, key, set); err != nil {
		t.Fatal(err)
	}
	flushT(t, s)
	payload, ok := s.Get(KindScenario, key)
	if !ok {
		t.Fatal("the scenario record was not stored")
	}
	if err := new(depmodel.Set).UnmarshalBinary(payload); err == nil ||
		!strings.Contains(err.Error(), "must not have a target") {
		t.Fatalf("decode error = %v, want the SD-with-target validation failure", err)
	}
	if _, ok := LoadScenario(s, key); ok {
		t.Fatal("invalid dependency set loaded")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestScenarioRecordRefusals: every malformed scenario payload inside a
// valid envelope loads as a miss with one invalidation counted, never
// as a panic or a partial set.
func TestScenarioRecordRefusals(t *testing.T) {
	set := depmodel.NewSet()
	set.Add(depmodel.Dependency{
		Kind:       depmodel.SDValueRange,
		Source:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Min: depmodel.I64(1024), Max: depmodel.I64(65536)},
		Evidence:   []string{"mke2fs.c:3"},
	})
	set.Add(depmodel.Dependency{
		Kind:       depmodel.CCDBehavioral,
		Source:     depmodel.ParamRef{Component: "e2fsck"},
		Target:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Relation: "behavioral", Enum: []string{"1024", "4096"}},
		Via:        []string{"ext2_super_block.s_log_block_size"},
	})
	valid, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The JSON array SaveScenario wrote before payloads went binary.
	legacy, err := json.Marshal(set.Deps())
	if err != nil {
		t.Fatal(err)
	}
	// hand encodes table ["a", "p", ""] and one dependency of the given
	// kind whose source component is table[src]: a.p when src is 0.
	hand := func(kind, src byte) []byte {
		return []byte{valid[0], 3, 1, 'a', 1, 'p', 0,
			1, kind, src, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0}
	}
	cases := map[string][]byte{
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		"index past table":  hand(byte(depmodel.SDDataType), 3),
		"kind zero":         hand(0, 0),
		"kind past the end": hand(byte(depmodel.CCDBehavioral)+1, 0),
		"unknown format":    append([]byte{valid[0] + 1}, valid[1:]...),
		"pre-binary JSON":   legacy,
	}
	for n := 0; n < len(valid); n++ {
		cases[fmt.Sprintf("prefix %d of %d", n, len(valid))] = valid[:n]
	}

	s, err := OpenWith(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	good := Key("hand-built")
	if err := s.Put(KindScenario, good, hand(byte(depmodel.SDDataType), 0)); err != nil {
		t.Fatal(err)
	}
	for name, payload := range cases {
		if err := s.Put(KindScenario, Key(name), payload); err != nil {
			t.Fatal(err)
		}
	}
	flushT(t, s)
	// The unmutated hand encoding loads, so each refusal below is the
	// mutation's doing.
	if got, ok := LoadScenario(s, good); !ok || got.Len() != 1 {
		t.Fatalf("hand-built encoding did not load: ok=%v", ok)
	}
	for name := range cases {
		before := s.Stats().Invalidations
		if got, ok := LoadScenario(s, Key(name)); ok {
			t.Errorf("%s: loaded a set of %d dependencies", name, got.Len())
		}
		if n := s.Stats().Invalidations - before; n != 1 {
			t.Errorf("%s: %d invalidations counted, want 1", name, n)
		}
	}
}

func TestSummariesRecordRoundTrip(t *testing.T) {
	p := compileT(t, recordSrc)
	tab := taint.NewSummaries()
	taint.Run(p, []taint.Seed{
		{Param: "conf", Func: "writer", Var: "conf"},
		{Param: "other", Func: "reader", Var: "other"},
	}, taint.Options{Summaries: tab})
	recs := tab.Export()
	if len(recs) == 0 {
		t.Fatal("no summaries recorded")
	}
	s := openT(t)
	key := Key("summaries")
	if err := SaveSummaries(s, key, recs); err != nil {
		t.Fatalf("save: %v", err)
	}
	flushT(t, s)
	got, ok := LoadSummaries(s, key)
	if !ok {
		t.Fatal("load missed just-saved summaries")
	}
	want, _ := json.Marshal(recs)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("summaries differ after round trip:\nwant %s\ngot  %s", want, have)
	}
	fresh := taint.NewSummaries()
	if n := fresh.Import(got); n != len(recs) {
		t.Errorf("imported %d of %d", n, len(recs))
	}
}
