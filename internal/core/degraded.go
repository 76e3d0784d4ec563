// Degraded-mode extraction: partial failure yields partial,
// clearly-labeled results instead of an aborted run. A component whose
// parse/compile fails, whose analysis panics, or whose taint fixpoint
// exhausts its visit budget (taint.BudgetExceeded) is quarantined with
// a structured Degradation record. Its SD/CPD dependencies are dropped
// — they could only come from its own taint facts — and the CCD edges
// that might have connected it to healthy components are marked
// unresolved, while every healthy component still produces its full
// output. The strict Analyze/AnalyzeAll path is unchanged: it fails
// closed on the first error.

package core

import (
	"fmt"
	"sort"

	"fsdep/internal/sched"
)

// Degradation stages.
const (
	// StageCompile marks a component whose parse or lowering failed.
	StageCompile = "compile"
	// StageTaint marks a component whose taint fixpoint exhausted its
	// visit budget (Err wraps *taint.BudgetExceeded).
	StageTaint = "taint"
)

// Degradation records one quarantined component of a degraded run.
type Degradation struct {
	// Component is the quarantined component's name.
	Component string
	// Stage says where the failure happened (StageCompile, StageTaint).
	Stage string
	// Err is the typed cause; errors.As reaches *taint.BudgetExceeded
	// and *sched.PanicError through it.
	Err error
}

// String renders the record for stderr summaries.
func (d Degradation) String() string {
	return fmt.Sprintf("%s [%s]: %v", d.Component, d.Stage, d.Err)
}

// UnresolvedEdge marks a potential metadata-bridge (CCD) edge a
// degraded run could not resolve: a healthy component branches on a
// shared metadata field, but a quarantined component — whose field
// writes are unknown — might hold the writer side.
type UnresolvedEdge struct {
	// Component is the healthy component whose branch reads Canon.
	Component string
	// Canon is the shared metadata field at the site.
	Canon string
	// Quarantined is the component whose writes could not be analyzed.
	Quarantined string
}

// DegradedRun is the outcome of AnalyzeAllDegraded.
type DegradedRun struct {
	// Results holds one result per scenario, in input order, exactly as
	// AnalyzeAll would have produced — minus the quarantined
	// components' contributions.
	Results []*Result
	// Degradations lists each quarantined component once (first
	// occurrence wins when a component degrades in several scenarios),
	// in deterministic order: compile-stage failures in first-reference
	// order, then taint-stage failures in scenario order.
	Degradations []Degradation
}

// guard runs fn, converting a panic into an error. Degraded-mode
// phases route failures through result values so every component's
// failure is collected — sched.Map alone would report only the
// lowest-indexed one — and a panicking component must not take the
// phase down with it.
func guard(name, stage string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("core: %s %s panicked: %v", stage, name, v)
		}
	}()
	return fn()
}

// AnalyzeAllDegraded runs like AnalyzeAll but fails open: components
// that cannot be compiled or whose taint fixpoint exhausts its budget
// are quarantined with a Degradation record while all healthy
// components still produce output. Only caller errors remain fatal —
// unknown component references and cancellation of sopts.Context.
func AnalyzeAllDegraded(comps map[string]*Component, scenarios []Scenario, opts Options, sopts sched.Options) (*DegradedRun, error) {
	unique, err := uniqueComponents(comps, scenarios)
	if err != nil {
		return nil, err
	}
	if opts.Store != nil {
		defer opts.Store.Flush()
	}
	// Compile phase: failures come back as result values so one broken
	// component does not mask another.
	compileErrs, err := sched.Map(sopts, unique, func(_ int, c *Component) (error, error) {
		return guard(c.Name, "compiling", c.Compile), nil
	})
	if err != nil {
		return nil, err
	}
	run := &DegradedRun{}
	quarantined := make(map[string]error)
	for i, c := range unique {
		if compileErrs[i] != nil {
			quarantined[c.Name] = compileErrs[i]
			run.Degradations = append(run.Degradations, Degradation{
				Component: c.Name, Stage: StageCompile, Err: compileErrs[i],
			})
		}
	}
	// Bulk-prefetch the taint and summary records the healthy components
	// will read (scenario records ride along unused — degraded runs skip
	// that fast path — a few spare bytes for one round trip).
	if opts.Store != nil && opts.Store.HasRemote() {
		opts.Store.Prefetch(PrefetchRefs(comps, scenarios, opts))
	}
	results, err := sched.Map(sopts, scenarios, func(_ int, sc Scenario) (*Result, error) {
		return analyzeScenario(comps, sc, opts, quarantined)
	})
	if err != nil {
		return nil, err
	}
	run.Results = results
	// Promote per-scenario taint-stage quarantines to run level, one
	// record per component (scenario order makes the pick
	// deterministic; compile-stage records are already present).
	for _, res := range results {
		for _, d := range res.Quarantined {
			if _, dup := quarantined[d.Component]; !dup {
				quarantined[d.Component] = d.Err
				run.Degradations = append(run.Degradations, d)
			}
		}
	}
	FlushSummaries(opts.Store, unique)
	return run, nil
}

// unresolvedEdges pairs every healthy branch site on a shared metadata
// field with every quarantined component of the scenario: the
// quarantined side's writes are unknown, so these are the CCD edges the
// run could not resolve. Deduplicated and sorted.
func unresolvedEdges(runs []compRun, quarantined []Degradation) []UnresolvedEdge {
	if len(quarantined) == 0 {
		return nil
	}
	seen := make(map[UnresolvedEdge]bool)
	var out []UnresolvedEdge
	for _, r := range runs {
		for _, site := range r.tr.Sites {
			for _, lockey := range site.Keys {
				canon := site.CanonOf[lockey]
				if canon == "" {
					continue
				}
				for _, q := range quarantined {
					e := UnresolvedEdge{Component: r.comp.Name, Canon: canon, Quarantined: q.Component}
					if !seen[e] {
						seen[e] = true
						out = append(out, e)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Canon != b.Canon {
			return a.Canon < b.Canon
		}
		return a.Quarantined < b.Quarantined
	})
	return out
}
