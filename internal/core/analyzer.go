// Package core implements the paper's primary contribution: a static
// analyzer that extracts multi-level configuration dependencies from
// the components of an FS ecosystem (§4.1).
//
// The pipeline per component is: parse the (mini-C) source, lower to
// IR, seed every configuration parameter, and run taint analysis over
// the scenario's pre-selected functions. Dependencies are then derived
// from the taint facts:
//
//   - SD data-type: a parameter variable is produced by a typed parser
//     call (strtoul, parse_bool, ...).
//   - SD value-range: a branch compares a single-parameter-tainted
//     variable against constants.
//   - CPD control/value: a branch relates two parameters of the same
//     component (directly or through a variable derived from both).
//   - CCD control/value/behavioral: the metadata bridge — component A
//     writes a shared metadata field with parameter taint, component B
//     branches on that field. The paper's key observation is that all
//     components access the FS metadata structures, so the shared
//     struct fields connect parameters across programs and the
//     user/kernel boundary.
//
// Extracted dependencies serialize to JSON (depmodel.File), and runs
// are scored against the corpus's ground-truth labels to obtain the
// false-positive rates of Table 5.
package core

import (
	"fmt"
	"sort"
	"sync"

	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// Param describes one configuration parameter of a component.
type Param struct {
	// Name is the user-visible parameter name (e.g. "blocksize").
	Name string
	// Var is the variable holding the parsed value in the source.
	Var string
	// Func is the function where Var is the parameter ("" = any).
	Func string
	// CType is the declared type ("int", "bool", "string", "enum").
	CType string
	// Doc is the manual text for the parameter (ConDocCk input).
	Doc string
}

// Component is one member of the FS ecosystem.
//
// A Component memoizes its compiled program and every taint run over
// it (see analyzeTaint), so Source and Params must not be mutated once
// the first analysis has started — later scenarios reuse the earlier
// results.
type Component struct {
	// Name identifies the component (mke2fs, mount, ext4, ...).
	Name string
	// Source is its mini-C source text.
	Source string
	// Params lists its configuration parameters.
	Params []Param

	// prog is the compiled IR (populated by Compile).
	prog *ir.Program
	file *minicc.File

	// compileOnce guards the lazy compilation; compileErr is the
	// sticky result shared by every caller.
	compileOnce sync.Once
	compileErr  error

	// taintMemo caches taint runs by canonical signature (cache.go);
	// cacheHits/cacheMisses are its atomic counters, and the disk/engine
	// counters below split the misses by how they were answered when a
	// persistent store is attached (store.go).
	taintMemo   sync.Map
	cacheHits   uint64
	cacheMisses uint64
	diskHits    uint64
	diskMisses  uint64
	engineRuns  uint64

	// hashOnce guards the content hash, the component's identity in the
	// persistent store (store.go).
	hashOnce    sync.Once
	contentHash string

	// summaries is the component's inter-procedural summary table,
	// shared by every taint run over the compiled program (store.go).
	sumMu     sync.Mutex
	summaries *taint.Summaries
}

// Compile parses and lowers the component. Idempotent and
// goroutine-safe: the first caller does the work and its result —
// including any error — sticks for all subsequent callers.
//
// Compilation consults the process-wide compiled-program cache
// (progcache.go) keyed by ContentHash, so a fresh Component for a
// source the process has already compiled reuses the immutable AST
// and IR instead of re-running the frontend.
func (c *Component) Compile() error {
	c.compileOnce.Do(func() {
		key := c.ContentHash()
		if p, f, ok := progCache.get(key); ok {
			c.file = f
			c.prog = p
			return
		}
		f, err := minicc.Parse(c.Name+".c", c.Source)
		if err != nil {
			c.compileErr = fmt.Errorf("core: compiling %s: %w", c.Name, err)
			return
		}
		p, err := ir.Build(f)
		if err != nil {
			c.compileErr = fmt.Errorf("core: lowering %s: %w", c.Name, err)
			return
		}
		c.file = f
		c.prog = p
		progCache.put(key, p, f)
	})
	return c.compileErr
}

// Program exposes the compiled IR (tests, tooling).
func (c *Component) Program() (*ir.Program, error) {
	if err := c.Compile(); err != nil {
		return nil, err
	}
	return c.prog, nil
}

// Scenario is one usage scenario of Table 3/5: an ordered component
// pipeline plus the pre-selected functions the intra-procedural
// prototype analyzes in each component.
type Scenario struct {
	// Name is the paper's scenario label, e.g.
	// "mke2fs-mount-ext4-umount-resize2fs".
	Name string
	// Components lists component names in pipeline order.
	Components []string
	// Funcs maps component name → pre-selected function names. A
	// missing entry means "analyze nothing in this component".
	Funcs map[string][]string
}

// Options configures an analysis run.
type Options struct {
	// Mode selects intra- (paper prototype) or inter-procedural
	// propagation.
	Mode taint.Mode
	// Sanitizers names calls that launder taint.
	Sanitizers []string
	// MaxIter bounds the taint fixpoint (0 = engine default). A
	// component whose fixpoint exhausts the budget fails the strict
	// Analyze path with a *taint.BudgetExceeded and is quarantined by
	// the degraded path.
	MaxIter int
	// Store, when non-nil, attaches the persistent extraction cache:
	// converged taint results, summary tables, and whole-scenario
	// dependency sets are loaded from and saved to it, keyed by
	// component content hashes so edited sources never reuse stale
	// records. Nil runs fully in-process, exactly as before.
	Store *depstore.Store
}

// ComponentResult carries per-component artifacts of a run.
type ComponentResult struct {
	Component string
	Taint     *taint.Result
	Seeds     []taint.Seed
}

// Result is one analyzer run over a scenario.
type Result struct {
	Scenario Scenario
	// Deps is the deduplicated extracted dependency set.
	Deps *depmodel.Set
	// PerComponent holds the raw taint results.
	PerComponent []ComponentResult
	// Quarantined lists the scenario components dropped from this run
	// by degraded-mode analysis, with their causes. Empty on the strict
	// path (which fails instead of quarantining).
	Quarantined []Degradation
	// UnresolvedCCD marks metadata-bridge edges this run could not
	// resolve because a potential writer was quarantined. Each healthy
	// branch site on a shared field is paired with every quarantined
	// component of the scenario, since the quarantined side's field
	// writes are unknown.
	UnresolvedCCD []UnresolvedEdge
}

// parserTypes maps known parser callees to the data type they imply.
// These play the role of the paper's manual annotations (§6 mentions
// the prototype requires some).
var parserTypes = map[string]string{
	"strtoul":        "int",
	"strtol":         "int",
	"atoi":           "int",
	"simple_strtoul": "int",
	"match_int":      "int",
	"parse_size":     "int",
	"parse_num":      "int",
	"parse_bool":     "bool",
	"match_bool":     "bool",
	"parse_string":   "string",
	"match_token":    "enum",
	"parse_mode":     "enum",
}

// Analyze runs the analyzer over the scenario's components. It is the
// strict path: any compile failure or taint-budget exhaustion aborts
// the run with an error (wrap-checked against *taint.BudgetExceeded).
// AnalyzeAllDegraded is the fail-open alternative.
func Analyze(comps map[string]*Component, sc Scenario, opts Options) (*Result, error) {
	return analyzeScenario(comps, sc, opts, nil)
}

// analyzeScenario runs one scenario. A nil quarantine map selects
// strict mode; non-nil selects degraded mode, where components in the
// map — plus any whose compile or taint fails here — are dropped from
// derivation and recorded in Result.Quarantined instead of failing the
// scenario.
func analyzeScenario(comps map[string]*Component, sc Scenario, opts Options, quarantined map[string]error) (*Result, error) {
	degraded := quarantined != nil

	// Scenario-record fast path: on the strict path a whole scenario's
	// extraction is a pure function of its components' content and the
	// analysis options, so a warm store answers it without compiling or
	// running taint at all. Degraded runs are excluded — their output
	// depends on which components happen to fail, which is not content.
	var scKey string
	if !degraded && opts.Store != nil {
		if key, ok := scenarioKey(comps, sc, opts); ok {
			scKey = key
			if set, found := depstore.LoadScenario(opts.Store, scKey); found {
				return &Result{Scenario: sc, Deps: set}, nil
			}
		}
	}

	res := &Result{Scenario: sc, Deps: depmodel.NewSet()}

	var runs []compRun
	for _, name := range sc.Components {
		comp, ok := comps[name]
		if !ok {
			return nil, fmt.Errorf("core: scenario %s references unknown component %q", sc.Name, name)
		}
		if err, bad := quarantined[name]; bad {
			res.Quarantined = append(res.Quarantined, Degradation{
				Component: name, Stage: StageCompile, Err: err,
			})
			continue
		}
		if err := guard(name, "compiling", comp.Compile); err != nil {
			if !degraded {
				return nil, err
			}
			res.Quarantined = append(res.Quarantined, Degradation{
				Component: name, Stage: StageCompile, Err: err,
			})
			continue
		}
		funcs := sc.Funcs[name]
		if len(funcs) == 0 {
			continue // component not analyzed in this scenario
		}
		// Memoized: scenarios selecting the same (mode, sanitizers,
		// function set) on this component share one taint run.
		tr, seeds := comp.analyzeTaint(funcs, opts)
		if tr.BudgetErr != nil {
			err := fmt.Errorf("core: analyzing %s in scenario %s: %w", name, sc.Name, tr.BudgetErr)
			if !degraded {
				return nil, err
			}
			res.Quarantined = append(res.Quarantined, Degradation{
				Component: name, Stage: StageTaint, Err: err,
			})
			continue
		}
		runs = append(runs, compRun{comp, tr})
		res.PerComponent = append(res.PerComponent, ComponentResult{
			Component: comp.Name, Taint: tr, Seeds: seeds,
		})
	}

	// Intra-component derivation: SD and CPD.
	for _, r := range runs {
		deriveSelfAndCrossParam(res.Deps, r.comp, r.tr, sc.Funcs[r.comp.Name])
	}
	// Cross-component derivation via the metadata bridge.
	deriveCrossComponent(res.Deps, runs)
	res.UnresolvedCCD = unresolvedEdges(runs, res.Quarantined)
	if scKey != "" {
		// Best-effort: a failed write leaves the next run cold, nothing
		// worse.
		_ = depstore.SaveScenario(opts.Store, scKey, res.Deps)
	}
	return res, nil
}

// AnalyzeAll runs the analyzer over several scenarios concurrently,
// bounded by sopts. Components shared between scenarios are compiled
// exactly once (Compile is goroutine-safe), and results come back in
// scenario order, so the output is byte-identical to calling Analyze
// over the scenarios sequentially.
func AnalyzeAll(comps map[string]*Component, scenarios []Scenario, opts Options, sopts sched.Options) ([]*Result, error) {
	unique, err := uniqueComponents(comps, scenarios)
	if err != nil {
		return nil, err
	}
	if opts.Store != nil {
		// Commit the run's records as one group, a failed run's too.
		// Errors are swallowed: the store is a cache.
		defer opts.Store.Flush()
	}
	// With a persistent store attached, warm scenario records make
	// compilation unnecessary; pre-compiling eagerly would spend exactly
	// the time the cache exists to save. Cold components still compile
	// lazily (and once) inside their first scenario.
	if opts.Store == nil {
		if _, err := sched.Map(sopts, unique, func(_ int, c *Component) (struct{}, error) {
			return struct{}{}, c.Compile()
		}); err != nil {
			return nil, err
		}
	} else if opts.Store.HasRemote() {
		// Warm-start prefetch: pull the run's whole record manifest from
		// the remote tier in one bulk round trip before any scenario asks
		// for it. A refused prefetch admits nothing, and the Gets below
		// then fall through one ref at a time, byte-identical either
		// way. Skipped outright for local-only stores, which would pay
		// the manifest build for nothing.
		opts.Store.Prefetch(PrefetchRefs(comps, scenarios, opts))
	}
	res, err := sched.Map(sopts, scenarios, func(_ int, sc Scenario) (*Result, error) {
		return Analyze(comps, sc, opts)
	})
	if err != nil {
		return nil, err
	}
	FlushSummaries(opts.Store, unique)
	return res, nil
}

// uniqueComponents validates scenario references up front and collects
// the unique components in first-reference order, so compile errors
// surface deterministically regardless of worker count.
func uniqueComponents(comps map[string]*Component, scenarios []Scenario) ([]*Component, error) {
	var unique []*Component
	seen := make(map[string]bool)
	for _, sc := range scenarios {
		for _, name := range sc.Components {
			comp, ok := comps[name]
			if !ok {
				return nil, fmt.Errorf("core: scenario %s references unknown component %q", sc.Name, name)
			}
			if !seen[name] {
				seen[name] = true
				unique = append(unique, comp)
			}
		}
	}
	return unique, nil
}

// seedParam returns the parameter name for seed id in tr.
func seedParam(tr *taint.Result, id int) string { return tr.Seeds[id].Param }

// singleSeed returns (id, true) when the set has exactly one member.
func singleSeed(s taint.SeedSet) (int, bool) {
	if s.Len() != 1 {
		return 0, false
	}
	return s.First(), true
}

// deriveSelfAndCrossParam extracts SD and CPD dependencies from one
// component's taint result.
func deriveSelfAndCrossParam(out *depmodel.Set, comp *Component, tr *taint.Result, funcs []string) {
	// --- SD data-type from parser calls ---
	prog := comp.prog
	selected := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		selected[f] = true
	}
	for _, fname := range prog.FuncOrder {
		if !selected[fname] {
			continue
		}
		fn := prog.Funcs[fname]
		fn.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpAssign || !in.HasDst || len(in.Calls) == 0 {
				return
			}
			var ptype string
			for _, callee := range in.Calls {
				if t, ok := parserTypes[callee]; ok {
					ptype = t
					break
				}
			}
			if ptype == "" {
				return
			}
			seeds := tr.SeedsOf(fname, in.Dst.Key())
			id, ok := singleSeed(seeds)
			if !ok {
				return
			}
			out.Add(depmodel.Dependency{
				Kind:   depmodel.SDDataType,
				Source: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, id)},
				Constraint: depmodel.Constraint{
					DataType: ptype,
					Expr:     fmt.Sprintf("%s must parse as %s", seedParam(tr, id), ptype),
				},
				Evidence: []string{in.Pos.String()},
			})
		})
	}

	// --- SD value-range and CPD from branch sites ---
	for _, site := range tr.Sites {
		deriveFromSite(out, comp, tr, site)
	}
}

// cmp is one comparison found in a branch condition.
type cmp struct {
	op    minicc.TokKind
	loc   string // location key of the variable side ("" if both const)
	cval  int64  // constant side value
	hasC  bool
	loc2  string // second variable side for var-vs-var comparisons
	hasL2 bool
	pos   minicc.Pos
}

// collectComparisons flattens a condition expression into comparisons
// and bare boolean tests.
func collectComparisons(comp *Component, site taint.Site) []cmp {
	var out []cmp
	consts := comp.file
	var walk func(e minicc.Expr, negated bool)
	locKey := func(e minicc.Expr) (string, bool) {
		root, path, ok := minicc.MemberPath(e)
		if !ok {
			return "", false
		}
		k := root
		for _, p := range path {
			k += "." + p
		}
		return k, true
	}
	walk = func(e minicc.Expr, negated bool) {
		switch v := e.(type) {
		case *minicc.Binary:
			switch v.Op {
			case minicc.TokAndAnd, minicc.TokOrOr:
				walk(v.L, negated)
				walk(v.R, negated)
				return
			case minicc.TokLt, minicc.TokGt, minicc.TokLe, minicc.TokGe,
				minicc.TokEqEq, minicc.TokNotEq:
				c := cmp{op: v.Op, pos: v.Pos}
				lk, lok := locKey(v.L)
				rk, rok := locKey(v.R)
				lc, lcok := minicc.ConstFoldFile(consts, v.L)
				rc, rcok := minicc.ConstFoldFile(consts, v.R)
				switch {
				case lok && rcok:
					c.loc, c.cval, c.hasC = lk, rc, true
				case rok && lcok:
					// Normalize to loc-op-const.
					c.loc, c.cval, c.hasC = rk, lc, true
					c.op = flip(v.Op)
				case lok && rok:
					c.loc, c.loc2, c.hasL2 = lk, rk, true
				default:
					return
				}
				out = append(out, c)
				return
			case minicc.TokAmp:
				// Feature-bit test: field & MASK.
				if k, ok := locKey(v.L); ok {
					if _, cok := minicc.ConstFoldFile(consts, v.R); cok {
						out = append(out, cmp{op: minicc.TokAmp, loc: k, pos: v.Pos})
						return
					}
				}
			}
		case *minicc.Unary:
			if v.Op == minicc.TokBang {
				walk(v.X, !negated)
				return
			}
		}
		// Bare variable used as boolean.
		if k, ok := locKey(e); ok {
			out = append(out, cmp{op: minicc.TokBang, loc: k, pos: e.ExprPos()})
		}
	}
	walk(site.Expr, false)
	return out
}

func flip(op minicc.TokKind) minicc.TokKind {
	switch op {
	case minicc.TokLt:
		return minicc.TokGt
	case minicc.TokGt:
		return minicc.TokLt
	case minicc.TokLe:
		return minicc.TokGe
	case minicc.TokGe:
		return minicc.TokLe
	}
	return op
}

// rangeAcc accumulates range bounds for one parameter at a site.
type rangeAcc struct {
	min, max *int64
	enum     []string
	pos      []string
}

// deriveFromSite classifies one tainted branch.
func deriveFromSite(out *depmodel.Set, comp *Component, tr *taint.Result, site taint.Site) {
	comps := collectComparisons(comp, site)

	// Group single-seed constant comparisons per seed → value ranges.
	ranges := make(map[int]*rangeAcc)
	paramsInvolved := make(map[int]bool)

	for _, c := range comps {
		seeds := site.LocTaint[c.loc]
		if c.loc == "" || seeds.Empty() {
			continue
		}
		seeds.ForEach(func(id int) { paramsInvolved[id] = true })
		// Var-vs-var: CPD value when the two sides carry different
		// single seeds.
		if c.hasL2 {
			s2 := site.LocTaint[c.loc2]
			id1, ok1 := singleSeed(seeds)
			id2, ok2 := singleSeed(s2)
			if ok1 && ok2 && id1 != id2 {
				out.Add(depmodel.Dependency{
					Kind:   depmodel.CPDValue,
					Source: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, id1)},
					Target: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, id2)},
					Constraint: depmodel.Constraint{
						Relation: relName(c.op),
						Expr: fmt.Sprintf("%s %s %s", seedParam(tr, id1),
							relName(c.op), seedParam(tr, id2)),
					},
					Evidence: []string{c.pos.String()},
				})
			}
			continue
		}
		if !c.hasC {
			continue
		}
		id, ok := singleSeed(seeds)
		if !ok {
			// Derived from multiple params compared against a
			// constant: a cross-parameter value dependency between
			// the contributing parameters.
			ids := seeds.IDs()
			if len(ids) == 2 {
				out.Add(depmodel.Dependency{
					Kind:   depmodel.CPDValue,
					Source: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, ids[0])},
					Target: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, ids[1])},
					Constraint: depmodel.Constraint{
						Relation: "derived-bound",
						Expr: fmt.Sprintf("value derived from %s and %s bounded by %d",
							seedParam(tr, ids[0]), seedParam(tr, ids[1]), c.cval),
					},
					Evidence: []string{c.pos.String()},
				})
			}
			continue
		}
		acc := ranges[id]
		if acc == nil {
			acc = &rangeAcc{}
			ranges[id] = acc
		}
		acc.pos = append(acc.pos, c.pos.String())
		switch c.op {
		case minicc.TokLt:
			// The branch rejects loc < cval, so cval is the valid
			// minimum.
			setMin(acc, c.cval, true)
		case minicc.TokLe:
			setMin(acc, c.cval+1, true)
		case minicc.TokGt:
			setMax(acc, c.cval, true)
		case minicc.TokGe:
			setMax(acc, c.cval-1, true)
		case minicc.TokEqEq, minicc.TokNotEq:
			acc.enum = append(acc.enum, fmt.Sprintf("%d", c.cval))
		}
	}

	// Emit SD value ranges.
	var ids []int
	for id := range ranges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		acc := ranges[id]
		con := depmodel.Constraint{}
		switch {
		case acc.min != nil || acc.max != nil:
			con.Min, con.Max = acc.min, acc.max
			con.Expr = rangeExpr(seedParam(tr, id), acc.min, acc.max)
		case len(acc.enum) > 0:
			con.Enum = acc.enum
			con.Expr = fmt.Sprintf("%s in {%v}", seedParam(tr, id), acc.enum)
		default:
			continue
		}
		out.Add(depmodel.Dependency{
			Kind:       depmodel.SDValueRange,
			Source:     depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, id)},
			Constraint: con,
			Evidence:   acc.pos,
		})
	}

	// CPD control: a branch tests two different parameters together —
	// bare boolean/flag tests, or equality tests against enum
	// constants (feature conflicts and mode requirements).
	boolTests := make(map[int]minicc.Pos)
	for _, c := range comps {
		switch c.op {
		case minicc.TokBang, minicc.TokAmp:
		case minicc.TokEqEq, minicc.TokNotEq:
			if !c.hasC {
				continue
			}
		default:
			continue
		}
		if id, ok := singleSeed(site.LocTaint[c.loc]); ok {
			if _, dup := boolTests[id]; !dup {
				boolTests[id] = c.pos
			}
		}
	}
	if len(boolTests) >= 2 {
		var bids []int
		for id := range boolTests {
			bids = append(bids, id)
		}
		sort.Ints(bids)
		// Pair the first parameter with each other one (matching how
		// validation code chains feature checks).
		for _, other := range bids[1:] {
			out.Add(depmodel.Dependency{
				Kind:   depmodel.CPDControl,
				Source: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, bids[0])},
				Target: depmodel.ParamRef{Component: comp.Name, Param: seedParam(tr, other)},
				Constraint: depmodel.Constraint{
					Relation: "control",
					Expr: fmt.Sprintf("%s is constrained by %s",
						seedParam(tr, bids[0]), seedParam(tr, other)),
				},
				Evidence: []string{boolTests[bids[0]].String(), boolTests[other].String()},
			})
		}
	}
}

func setMin(acc *rangeAcc, v int64, ok bool) {
	if !ok {
		return
	}
	if acc.min == nil || *acc.min < v {
		acc.min = depmodel.I64(v)
	}
}

func setMax(acc *rangeAcc, v int64, ok bool) {
	if !ok {
		return
	}
	if acc.max == nil || *acc.max > v {
		acc.max = depmodel.I64(v)
	}
}

func rangeExpr(param string, min, max *int64) string {
	switch {
	case min != nil && max != nil:
		return fmt.Sprintf("%d <= %s <= %d", *min, param, *max)
	case min != nil:
		return fmt.Sprintf("%s >= %d", param, *min)
	default:
		return fmt.Sprintf("%s <= %d", param, *max)
	}
}

func relName(op minicc.TokKind) string {
	switch op {
	case minicc.TokLt:
		return "lt"
	case minicc.TokLe:
		return "le"
	case minicc.TokGt:
		return "gt"
	case minicc.TokGe:
		return "ge"
	case minicc.TokEqEq:
		return "eq"
	case minicc.TokNotEq:
		return "ne"
	}
	return "rel"
}

// compRun pairs a component with its taint result.
type compRun struct {
	comp *Component
	tr   *taint.Result
}

// deriveCrossComponent joins tainted metadata writes in one component
// with branch reads in another — the metadata bridge.
func deriveCrossComponent(out *depmodel.Set, runs []compRun) {
	// canon field → writers (component, param, pos)
	type writer struct {
		comp  string
		param string
		pos   string
	}
	writers := make(map[string][]writer)
	for _, r := range runs {
		for _, fw := range r.tr.FieldWrites {
			for _, id := range fw.Seeds.IDs() {
				writers[fw.Canon] = append(writers[fw.Canon], writer{
					comp: r.comp.Name, param: seedParam(r.tr, id), pos: fw.Pos.String(),
				})
			}
		}
	}
	for _, r := range runs {
		for _, site := range r.tr.Sites {
			// Iterate canonical locations in sorted order: map order
			// would otherwise make CCD evidence positions differ from
			// run to run. The taint engine precomputes both sorted
			// views in its reporting pass, so no per-run re-sorting
			// happens here.
			for _, lockey := range site.Keys {
				canon := site.CanonOf[lockey]
				if canon == "" {
					continue
				}
				// A reader param of this component at the same site?
				// Prefer plain (non-metadata) locations, in sorted
				// order for determinism.
				var readerParam string
				for _, otherKey := range site.PlainFirstKeys {
					if otherKey == lockey {
						continue
					}
					if id, ok := singleSeed(site.LocTaint[otherKey]); ok {
						readerParam = seedParam(r.tr, id)
						break
					}
				}
				for _, w := range writers[canon] {
					if w.comp == r.comp.Name {
						continue
					}
					kind := depmodel.CCDBehavioral
					src := depmodel.ParamRef{Component: r.comp.Name}
					expr := fmt.Sprintf("%s's behavior depends on %s.%s (via %s)",
						r.comp.Name, w.comp, w.param, canon)
					if readerParam != "" {
						src.Param = readerParam
						if isFeatureBitTest(site, lockey) {
							kind = depmodel.CCDControl
							expr = fmt.Sprintf("%s.%s is constrained by %s.%s (via %s)",
								r.comp.Name, readerParam, w.comp, w.param, canon)
						} else {
							kind = depmodel.CCDValue
							expr = fmt.Sprintf("%s.%s relates to %s.%s (via %s)",
								r.comp.Name, readerParam, w.comp, w.param, canon)
						}
					}
					out.Add(depmodel.Dependency{
						Kind:   kind,
						Source: src,
						Target: depmodel.ParamRef{Component: w.comp, Param: w.param},
						Constraint: depmodel.Constraint{
							Relation: "behavioral",
							Expr:     expr,
						},
						Via:      []string{canon},
						Evidence: []string{w.pos, site.Pos.String()},
					})
				}
			}
		}
	}
}

// isFeatureBitTest reports whether the site tests lockey with a bit
// mask (field & FLAG).
func isFeatureBitTest(site taint.Site, lockey string) bool {
	found := false
	minicc.WalkExpr(site.Expr, func(e minicc.Expr) bool {
		b, ok := e.(*minicc.Binary)
		if !ok || b.Op != minicc.TokAmp {
			return true
		}
		root, path, ok := minicc.MemberPath(b.L)
		if !ok {
			return true
		}
		k := root
		for _, p := range path {
			k += "." + p
		}
		if k == lockey {
			found = true
		}
		return true
	})
	return found
}
