package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/sched"
)

// The service-test ecosystem mirrors core's store fixture: a
// metadata-bridge pair plus an independent component, so incremental
// invalidation has both dependents and bystanders to discriminate.

const svcShared = "struct super { u32 s_field; };\n"

const svcReaderSrc = svcShared + `
struct ropts { long limit; };
int check(struct ropts *opts, struct super *sb) {
	if (opts->limit < 512) {
		return fail();
	}
	if (opts->limit > sb->s_field) {
		return fail();
	}
	return 0;
}`

func svcFixture() map[string]*core.Component {
	writer := &core.Component{Name: "writer", Source: svcShared + `
struct wopts { long v; };
void setup(struct wopts *opts, struct super *sb) {
	if (opts->v < 1024) {
		fail();
	}
	sb->s_field = opts->v;
}`, Params: []core.Param{{Name: "v", Var: "opts.v", CType: "int"}}}
	reader := &core.Component{Name: "reader", Source: svcReaderSrc,
		Params: []core.Param{{Name: "limit", Var: "opts.limit", CType: "int"}}}
	solo := &core.Component{Name: "solo", Source: `
struct sopts { long n; };
int validate(struct sopts *opts) {
	if (opts->n < 2 || opts->n > 64) {
		return fail();
	}
	return 0;
}`, Params: []core.Param{{Name: "n", Var: "opts.n", CType: "int"}}}
	return map[string]*core.Component{"writer": writer, "reader": reader, "solo": solo}
}

func svcScenarios() []core.Scenario {
	return []core.Scenario{
		{Name: "bridge", Components: []string{"writer", "reader"},
			Funcs: map[string][]string{"writer": {"setup"}, "reader": {"check"}}},
		{Name: "solo", Components: []string{"solo"},
			Funcs: map[string][]string{"solo": {"validate"}}},
		{Name: "all", Components: []string{"writer", "reader", "solo"},
			Funcs: map[string][]string{"writer": {"setup"}, "reader": {"check"}, "solo": {"validate"}}},
	}
}

// renderResults serializes per-scenario dependency sets exactly as the
// CLI's JSON path would — the structure-identity oracle this package's
// doc comment promises.
func renderResults(t *testing.T, results []*core.Result) string {
	t.Helper()
	var b strings.Builder
	for _, res := range results {
		blob, err := json.Marshal(res.Deps.Deps())
		if err != nil {
			t.Fatalf("marshal %s: %v", res.Scenario.Name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", res.Scenario.Name, blob)
	}
	return b.String()
}

func newAnalysisT(t *testing.T) *Analysis {
	t.Helper()
	a, err := New(svcFixture(), svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnalysisMatchesBatchRun pins the service's core promise: the
// daemon's answers are identical to the batch CLI path over the same
// sources.
func TestAnalysisMatchesBatchRun(t *testing.T) {
	a := newAnalysisT(t)
	got, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AnalyzeAll(svcFixture(), svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(t, got) != renderResults(t, want) {
		t.Errorf("service results differ from batch run:\nwant %s\ngot  %s",
			renderResults(t, want), renderResults(t, got))
	}
	res, err := a.Scenario("bridge")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.Name != "bridge" {
		t.Errorf("Scenario returned %q", res.Scenario.Name)
	}
	if _, err := a.Scenario("ghost"); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("unknown scenario error = %v", err)
	}
	union, err := a.Union()
	if err != nil {
		t.Fatal(err)
	}
	if union.Len() == 0 {
		t.Error("union extraction is empty; the fixture proves nothing")
	}
	if comps := a.Components(); !reflect.DeepEqual(comps, []string{"reader", "solo", "writer"}) {
		t.Errorf("components = %v", comps)
	}
}

// TestUploadIncrementalMatchesFromScratch is the acceptance-criteria
// path: upload one edited component, re-query, and the answers must
// match a from-scratch strict run over the edited corpus.
func TestUploadIncrementalMatchesFromScratch(t *testing.T) {
	a := newAnalysisT(t)
	before, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	beforeRender := renderResults(t, before)

	editedSrc := strings.Replace(svcReaderSrc, "512", "2048", 1)
	inv, err := a.Upload("reader", editedSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"bridge", "all"}; !reflect.DeepEqual(inv.StaleScenarios, want) {
		t.Errorf("stale scenarios = %v, want %v", inv.StaleScenarios, want)
	}
	if want := []string{"writer"}; !reflect.DeepEqual(inv.Dependents, want) {
		t.Errorf("dependents = %v, want %v", inv.Dependents, want)
	}

	after, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(t, after) == beforeRender {
		t.Error("upload did not change the extraction; the test proves nothing")
	}

	fresh := svcFixture()
	fresh["reader"] = &core.Component{Name: "reader", Source: editedSrc,
		Params: []core.Param{{Name: "limit", Var: "opts.limit", CType: "int"}}}
	scratch, err := core.AnalyzeAll(fresh, svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResults(t, after), renderResults(t, scratch); got != want {
		t.Errorf("post-upload results differ from from-scratch run:\nwant %s\ngot  %s", want, got)
	}
	if st := a.StatsSnapshot(); st.Generation != 1 || !st.Ran {
		t.Errorf("stats = %+v, want generation 1", st)
	}
}

// TestUploadRejectionsLeaveSessionUntouched: unknown names 404, broken
// sources 422, and neither perturbs the analysis.
func TestUploadRejectionsLeaveSessionUntouched(t *testing.T) {
	a := newAnalysisT(t)
	before, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(t, before)

	if _, err := a.Upload("ghost", "int f() { return 0; }", nil); !errors.Is(err, ErrUnknownComponent) {
		t.Errorf("unknown component error = %v", err)
	}
	if _, err := a.Upload("reader", "int f( {", nil); !errors.Is(err, ErrBadSource) {
		t.Errorf("broken source error = %v", err)
	}
	after, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResults(t, after); got != want {
		t.Errorf("rejected upload changed the results:\nwant %s\ngot  %s", want, got)
	}
	if st := a.StatsSnapshot(); st.Generation != 0 {
		t.Errorf("rejected upload bumped the generation: %+v", st)
	}
}

// TestConcurrentUploadAndQueries is the single-writer/multi-reader
// contract under -race: queries racing uploads must each observe one
// coherent generation — exactly the pre-edit or post-edit rendering,
// never a torn mix.
func TestConcurrentUploadAndQueries(t *testing.T) {
	a, err := New(svcFixture(), svcScenarios(), core.Options{}, sched.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	oldWant := renderResults(t, r0)

	editedSrc := strings.Replace(svcReaderSrc, "512", "2048", 1)
	fresh := svcFixture()
	fresh["reader"] = &core.Component{Name: "reader", Source: editedSrc,
		Params: []core.Param{{Name: "limit", Var: "opts.limit", CType: "int"}}}
	scratch, err := core.AnalyzeAll(fresh, svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	newWant := renderResults(t, scratch)

	const readers = 4
	const queriesEach = 20
	var wg sync.WaitGroup
	errs := make(chan string, readers*queriesEach)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				res, err := a.Results()
				if err != nil {
					errs <- fmt.Sprintf("query: %v", err)
					return
				}
				if got := renderResults(t, res); got != oldWant && got != newWant {
					errs <- fmt.Sprintf("torn generation observed:\n%s", got)
					return
				}
				if _, err := a.Scenario("solo"); err != nil {
					errs <- fmt.Sprintf("scenario query: %v", err)
					return
				}
				a.StatsSnapshot()
			}
		}()
	}
	// Writer: flip the reader component back and forth while the queries
	// run.
	sources := []string{editedSrc, svcReaderSrc, editedSrc}
	for _, src := range sources {
		if _, err := a.Upload("reader", src, nil); err != nil {
			t.Fatalf("upload: %v", err)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	final, err := a.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResults(t, final); got != newWant {
		t.Errorf("final generation differs from from-scratch run over the last upload:\nwant %s\ngot  %s", newWant, got)
	}
}

// TestViolationsCachedPerGeneration: the ConHandleCk report is computed
// once per analysis generation and recomputed after an upload.
func TestViolationsCachedPerGeneration(t *testing.T) {
	a := newAnalysisT(t)
	r1, err := a.Violations()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("violation report recomputed without an upload")
	}
	editedSrc := strings.Replace(svcReaderSrc, "512", "2048", 1)
	if _, err := a.Upload("reader", editedSrc, nil); err != nil {
		t.Fatal(err)
	}
	r3, err := a.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("violation report not refreshed after an upload")
	}
}

// TestDegradedRun: the fail-open path over the current bindings works
// and does not disturb the strict results.
func TestDegradedRun(t *testing.T) {
	a := newAnalysisT(t)
	run, err := a.Degraded()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Degradations) != 0 {
		t.Errorf("healthy fixture produced degradations: %v", run.Degradations)
	}
	if len(run.Results) != len(svcScenarios()) {
		t.Errorf("degraded run covered %d scenarios", len(run.Results))
	}
}
