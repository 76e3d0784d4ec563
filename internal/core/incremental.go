// Incremental re-analysis: a Session keeps the analyzed world —
// components, scenarios, memoized taint runs, per-scenario results —
// alive between edits, so changing one component re-runs a strict
// subset of the engine instead of the whole ecosystem.
//
// The unit of staleness is the scenario: every derivation pass is
// intra-scenario (SD/CPD read one component's facts, the CCD metadata
// bridge joins facts of components in the same scenario), so an edit
// to component X can only change the results of scenarios whose
// pipeline contains X. Within a stale scenario the engine-level
// incrementality comes from the taint memo: unchanged components keep
// their *Component object and therefore their memoized fixpoint runs,
// so only the edited component's signatures re-run. Invalidate swaps
// in a fresh *Component, letting the old object's sticky compile and
// taint memos die with it — there is no in-place mutation to get
// wrong.
//
// Invalidate also reports the edit's transitive CCD dependents,
// derived from the reader/writer canon edges of the previous results:
// components whose extracted dependencies may change because they
// share metadata fields (directly or through a chain of components)
// with the edited one. The scenario staleness above is a superset of
// this — it is the sound recomputation unit — so Dependents is
// diagnostic: it names which components' facts made the recomputation
// necessary.

package core

import (
	"sort"
	"sync"

	"fsdep/internal/sched"
)

// Session is an incremental analysis over a fixed scenario list. Not
// goroutine-safe across Run/Invalidate (the internal scheduler still
// parallelizes each Run); guard externally if shared.
type Session struct {
	mu        sync.Mutex
	comps     map[string]*Component
	scenarios []Scenario
	opts      Options
	sopts     sched.Options
	results   []*Result
	fresh     []bool
}

// Invalidation reports what one component edit made stale.
type Invalidation struct {
	// Component is the edited component's name.
	Component string
	// Dependents are the transitive CCD dependents of the edit, from
	// the previous results' metadata-bridge edges (sorted; empty before
	// the first Run).
	Dependents []string
	// StaleScenarios lists the scenarios the next Run recomputes, in
	// scenario order.
	StaleScenarios []string
}

// NewSession validates the scenario references and captures the
// component map (shallow copy: the session owns the name → component
// binding, the caller keeps its map).
func NewSession(comps map[string]*Component, scenarios []Scenario, opts Options, sopts sched.Options) (*Session, error) {
	if _, err := uniqueComponents(comps, scenarios); err != nil {
		return nil, err
	}
	own := make(map[string]*Component, len(comps))
	for name, c := range comps {
		own[name] = c
	}
	return &Session{
		comps:     own,
		scenarios: append([]Scenario(nil), scenarios...),
		opts:      opts,
		sopts:     sopts,
		results:   make([]*Result, len(scenarios)),
		fresh:     make([]bool, len(scenarios)),
	}, nil
}

// Components returns the session's current component bindings (for
// stats inspection; the map is a copy).
func (s *Session) Components() map[string]*Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*Component, len(s.comps))
	for name, c := range s.comps {
		out[name] = c
	}
	return out
}

// Run returns one result per scenario in input order, recomputing only
// the scenarios invalidated since the previous Run (all of them on the
// first call). Fresh scenarios return the exact prior *Result.
func (s *Session) Run() ([]*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Store != nil {
		defer s.opts.Store.Flush()
	}
	var stale []int
	for i, ok := range s.fresh {
		if !ok {
			stale = append(stale, i)
		}
	}
	if s.opts.Store != nil && s.opts.Store.HasRemote() && len(stale) > 0 {
		staleScs := make([]Scenario, len(stale))
		for j, i := range stale {
			staleScs[j] = s.scenarios[i]
		}
		s.opts.Store.Prefetch(PrefetchRefs(s.comps, staleScs, s.opts))
	}
	outs, err := sched.Map(s.sopts, stale, func(_ int, i int) (*Result, error) {
		return analyzeScenario(s.comps, s.scenarios[i], s.opts, nil)
	})
	if err != nil {
		return nil, err
	}
	for j, i := range stale {
		s.results[i] = outs[j]
		s.fresh[i] = true
	}
	return append([]*Result(nil), s.results...), nil
}

// Invalidate installs an edited component and marks every scenario
// whose pipeline references it stale. The replacement must be a fresh
// *Component (typically rebuilt from the edited source): the old
// object's memoized compile and taint runs are dropped by dropping the
// object, while every other component keeps its memos — the next Run
// re-executes the engine only for the edited component's signatures.
func (s *Session) Invalidate(comp *Component) Invalidation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.comps[comp.Name] = comp
	inv := Invalidation{
		Component:  comp.Name,
		Dependents: s.dependentsLocked(comp.Name),
	}
	for i, sc := range s.scenarios {
		for _, name := range sc.Components {
			if name == comp.Name {
				s.fresh[i] = false
				inv.StaleScenarios = append(inv.StaleScenarios, sc.Name)
				break
			}
		}
	}
	return inv
}

// Close flushes accumulated summary tables to the session's store, if
// any. Safe to call on storeless sessions.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Store == nil {
		return
	}
	unique := make([]*Component, 0, len(s.comps))
	seen := make(map[string]bool, len(s.comps))
	for _, sc := range s.scenarios {
		for _, name := range sc.Components {
			if c := s.comps[name]; c != nil && !seen[name] {
				seen[name] = true
				unique = append(unique, c)
			}
		}
	}
	FlushSummaries(s.opts.Store, unique)
	_ = s.opts.Store.Flush()
}

// dependentsLocked computes the transitive CCD dependents of name from
// the previous results' taint facts: the closure of components sharing
// a canonical metadata field (as reader or writer) with the edited
// one. Results whose per-component facts were answered by a scenario
// record contribute nothing — they carry no taint facts — which only
// shrinks the diagnostic, never the recomputation (scenario staleness
// is membership-based).
func (s *Session) dependentsLocked(name string) []string {
	canons := make(map[string]map[string]bool) // component → canon set
	for _, res := range s.results {
		if res == nil {
			continue
		}
		for _, pc := range res.PerComponent {
			set := canons[pc.Component]
			if set == nil {
				set = make(map[string]bool)
				canons[pc.Component] = set
			}
			for _, fw := range pc.Taint.FieldWrites {
				set[fw.Canon] = true
			}
			for _, fr := range pc.Taint.FieldReads {
				set[fr.Canon] = true
			}
		}
	}
	if canons[name] == nil {
		return nil
	}
	reached := map[string]bool{name: true}
	frontier := []string{name}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for other, set := range canons {
			if reached[other] {
				continue
			}
			for canon := range canons[cur] {
				if set[canon] {
					reached[other] = true
					frontier = append(frontier, other)
					break
				}
			}
		}
	}
	var out []string
	for comp := range reached {
		if comp != name {
			out = append(out, comp)
		}
	}
	sort.Strings(out)
	return out
}
