package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fsdep/bench/stats"
	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/e2fsck"
	"fsdep/internal/fsim"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
	"fsdep/internal/report"
	"fsdep/internal/resize2fs"
	"fsdep/internal/sched"
	"fsdep/internal/service"
	"fsdep/internal/taint"
)

// layerUnits lists every per-layer metric with its unit. A layer the
// workload's operation never reaches reads 0.
var layerUnits = [...]struct{ name, unit string }{
	{"cmd.start_ms", "ms"},
	{"minicc.lex_ms", "ms"},
	{"minicc.parse_ms", "ms"},
	{"ir.lower_ms", "ms"},
	{"core.compile_count", "count"},
	{"taint.fixpoint_ms", "ms"},
	{"taint.engine_runs", "count"},
	{"core.analyze_self_ms", "ms"},
	{"corpus.score_ms", "ms"},
	{"report.render_ms", "ms"},
	{"sched.speedup", "ratio"},
	{"depstore.put_ms", "ms"},
	{"depstore.encode_ms", "ms"},
	{"depstore.fs_write_ms", "ms"},
	{"depstore.fs_sync_ms", "ms"},
	{"depstore.fs_sync_count", "count"},
	{"depstore.bytes_written", "B"},
	{"depstore.get_ms", "ms"},
	{"depstore.decode_ms", "ms"},
	{"depstore.fs_read_ms", "ms"},
	{"depstore.hits", "count"},
	{"depstore.hot_hits", "count"},
	{"depstore.hit_ratio", "ratio"},
	{"remote.round_trips", "count"},
	{"remote.batch_get_ms", "ms"},
	{"remote.wire_bytes", "B"},
	{"remote.raw_bytes", "B"},
	{"remote.records_used_ratio", "ratio"},
	{"wire.decode_ms", "ms"},
	{"service.deps_ms", "ms"},
	{"service.violations_ms", "ms"},
	{"service.batch_get_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"service.shed", "count"},
	{"conhandleck.run_ms", "ms"},
	{"mke2fs.run_ms", "ms"},
	{"mountsim.do_ms", "ms"},
	{"resize2fs.run_ms", "ms"},
	{"e2fsck.run_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// traceRun replays the workload's operation in-process with spans at
// every layer boundary and reports the per-layer metrics.
func traceRun(ctx context.Context, cfg config) (*outcome, error) {
	until := time.Now().Add(cfg.duration)
	tr := newTracer()
	rep := newOutcome()
	layers := map[string]float64{}
	start, err := measureStart(ctx, cfg)
	if err != nil {
		return nil, err
	}
	layers["cmd.start_ms"] = start
	if layers["sched.speedup"], err = measureSpeedup(); err != nil {
		return nil, err
	}
	if cfg.workload == "daemon" {
		err = traceDaemon(ctx, cfg, tr, rep, layers, until)
	} else {
		err = traceCLI(ctx, cfg, tr, rep, layers, until)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	for _, l := range layerUnits {
		rep.set(l.name, layers[l.name], l.unit)
	}
	return rep, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg, layers)
}

// startSpawns is how many processes time the process floor.
const startSpawns = 30

// measureStart times `fsdep -mode bogus`, which exits 2 right after
// flag parsing: the cost of starting the process at all.
func measureStart(ctx context.Context, cfg config) (float64, error) {
	var wall []float64
	for i := 0; i < startSpawns; i++ {
		r, err := runCLI(ctx, cfg, "-mode", "bogus")
		if err != nil {
			return 0, err
		}
		if r.exit != 2 {
			return 0, fmt.Errorf("fsdep -mode bogus exited %d, want 2", r.exit)
		}
		wall = append(wall, ms(r.wall))
	}
	return stats.Median(wall), nil
}

// speedupPairs is how many alternating workers=1 and workers=max
// extractions the speed-up compares.
const speedupPairs = 10

// measureSpeedup divides the median in-memory cold extraction time at
// one worker by that at GOMAXPROCS workers.
func measureSpeedup() (float64, error) {
	prev := core.SetProgramCacheCapacity(0)
	defer core.SetProgramCacheCapacity(prev)
	scenarios := corpus.Scenarios()
	var one, all []float64
	for i := 0; i < 2*speedupPairs; i++ {
		workers := 1
		if i%4 == 1 || i%4 == 2 { // 1, max, max, 1, ...: alternate who goes first
			workers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		if _, err := core.AnalyzeAll(corpus.Components(), scenarios, core.Options{Mode: taint.Intra},
			sched.Options{Workers: workers}); err != nil {
			return 0, err
		}
		if workers == 1 {
			one = append(one, ms(time.Since(start)))
		} else {
			all = append(all, ms(time.Since(start)))
		}
	}
	return stats.Median(one) / stats.Median(all), nil
}

// signature is one distinct taint-engine run of a scenario set: a
// component and the function selection it is analysed with.
type signature struct {
	comp  *core.Component
	funcs []string
}

// corpusShape lists, in first-use order, the components a cold
// extraction compiles and the engine runs it performs, mirroring the
// deduplication of core's program and taint caches.
func corpusShape(comps map[string]*core.Component, scenarios []core.Scenario) ([]*core.Component, []signature) {
	var unique []*core.Component
	var sigs []signature
	seen := map[string]bool{}
	for _, sc := range scenarios {
		for _, name := range sc.Components {
			if !seen[name] {
				seen[name] = true
				unique = append(unique, comps[name])
			}
			funcs := append([]string(nil), sc.Funcs[name]...)
			if len(funcs) == 0 {
				continue
			}
			sort.Strings(funcs)
			key := name + "\x00" + strings.Join(funcs, "\x00")
			if !seen[key] {
				seen[key] = true
				sigs = append(sigs, signature{comps[name], funcs})
			}
		}
	}
	return unique, sigs
}

// seedsOf builds a component's taint seeds the way core does: one per
// parameter, a dotted variable seeding a struct field.
func seedsOf(params []core.Param) []taint.Seed {
	seeds := make([]taint.Seed, 0, len(params))
	for _, p := range params {
		sd := taint.Seed{Param: p.Name, Func: p.Func, Var: p.Var}
		if v, field, ok := strings.Cut(p.Var, "."); ok {
			sd.Var, sd.Field = v, field
		}
		seeds = append(seeds, sd)
	}
	return seeds
}

// replayer times the frontend, engine and record-store layers on an
// operation's own inputs.
type replayer struct {
	tr *tracer
	// nop has no hot tier over a filesystem that stores nothing, so a
	// Put or Save on it costs only envelope, checksum and encoding.
	nop *depstore.Store
	// hot answers every Get from memory, so a Load on it costs only
	// the decode.
	hot   *depstore.Store
	progs map[string]*ir.Program
	// encodeMs and decodeMs accumulate Save minus Put and Load minus
	// Get over the replayed records.
	encodeMs, decodeMs float64
}

func newReplayer(tr *tracer) (*replayer, error) {
	nop, err := depstore.OpenWith(depstore.Options{Dir: "nop", FS: nopFS{}})
	if err != nil {
		return nil, err
	}
	hot, err := depstore.OpenWith(depstore.Options{Dir: "nop", FS: nopFS{}, HotRecords: 1024})
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: tr, nop: nop, hot: hot, progs: map[string]*ir.Program{}}
	for name, c := range corpus.Components() {
		if rp.progs[name], err = c.Program(); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// compile replays the frontend on one component source.
func (rp *replayer) compile(name, src string) (*ir.Program, error) {
	var err error
	rp.tr.replay("minicc.lex", func() { _, err = minicc.NewLexer(name+".c", src).Tokenize() })
	if err != nil {
		return nil, err
	}
	var f *minicc.File
	rp.tr.replay("minicc.parse", func() { f, err = minicc.Parse(name+".c", src) })
	if err != nil {
		return nil, err
	}
	var p *ir.Program
	rp.tr.replay("ir.lower", func() { p, err = ir.Build(f) })
	return p, err
}

// fixpoint replays the engine runs of sigs, one summary table per
// component as core keeps it, and returns each run's duration.
func (rp *replayer) fixpoint(sigs []signature) []time.Duration {
	tables := map[string]*taint.Summaries{}
	var out []time.Duration
	for _, sg := range sigs {
		name := sg.comp.Name
		if tables[name] == nil {
			tables[name] = taint.NewSummaries()
		}
		seeds := seedsOf(sg.comp.Params)
		opts := taint.Options{Mode: taint.Intra, Functions: sg.funcs, Summaries: tables[name]}
		out = append(out, rp.tr.replay("taint.fixpoint", func() { taint.Run(rp.progs[name], seeds, opts) }))
	}
	return out
}

// loadTaint rehydrates a taint record against whichever corpus program
// it belongs to.
func (rp *replayer) loadTaint(r storeRec) (*taint.Result, *ir.Program) {
	_ = rp.hot.Put(r.kind, r.key, r.payload)
	for _, p := range rp.progs {
		if res, ok := depstore.LoadTaint(rp.hot, r.key, p); ok {
			return res, p
		}
	}
	return nil, nil
}

// saver returns the depstore Save call that writes r, with its domain
// value decoded beforehand, or nil for a record it cannot rebuild.
func (rp *replayer) saver(r storeRec) func() {
	switch r.kind {
	case depstore.KindScenario:
		set := depmodel.NewSet()
		if json.Unmarshal(r.payload, set) != nil {
			return nil
		}
		return func() { _ = depstore.SaveScenario(rp.nop, r.key, set) }
	case depstore.KindSummaries:
		var recs []taint.SummaryRecord
		if json.Unmarshal(r.payload, &recs) != nil {
			return nil
		}
		return func() { _ = depstore.SaveSummaries(rp.nop, r.key, recs) }
	case depstore.KindTaint:
		if res, _ := rp.loadTaint(r); res != nil {
			return func() { _ = depstore.SaveTaint(rp.nop, r.key, res) }
		}
	}
	return nil
}

// loader returns the depstore Load call that reads r back.
func (rp *replayer) loader(r storeRec) func() {
	switch r.kind {
	case depstore.KindScenario:
		return func() { depstore.LoadScenario(rp.hot, r.key) }
	case depstore.KindSummaries:
		return func() { depstore.LoadSummaries(rp.hot, r.key) }
	case depstore.KindTaint:
		if _, p := rp.loadTaint(r); p != nil {
			return func() { depstore.LoadTaint(rp.hot, r.key, p) }
		}
	}
	return nil
}

// writes replays the records an operation committed: each Put's CPU
// work, and the encoding its Save call adds on top.
func (rp *replayer) writes(recs []storeRec) {
	for _, r := range recs {
		put := rp.tr.replay("depstore.put_cpu", func() { _ = rp.nop.Put(r.kind, r.key, r.payload) })
		if save := rp.saver(r); save != nil {
			rp.encodeMs += ms(rp.tr.replay("depstore.save", save) - put)
		}
	}
}

// reads replays the records an operation read: each Get as the
// operation's store served it, and the decoding its Load call adds.
func (rp *replayer) reads(recs []storeRec, get func(kind, key string)) {
	for _, r := range recs {
		rp.tr.replay("depstore.get", func() { get(r.kind, r.key) })
		_ = rp.hot.Put(r.kind, r.key, r.payload)
		hotGet := rp.tr.replay("depstore.hot_get", func() { rp.hot.Get(r.kind, r.key) })
		if load := rp.loader(r); load != nil {
			rp.decodeMs += ms(rp.tr.replay("depstore.load", load) - hotGet)
		}
	}
}

// fsLayers derives the record-store filesystem metrics from the spans
// of the depstore.FS seam, per operation.
func fsLayers(layers map[string]float64, s sums, n float64) (probe float64) {
	per := func(names ...string) float64 {
		var t float64
		for _, name := range names {
			t += s.ms[name]
		}
		return t / n
	}
	probe = per("fs.probe")
	layers["depstore.fs_read_ms"] = per("fs.read", "fs.chtimes")
	layers["depstore.fs_write_ms"] = per("fs.mkdir", "fs.create", "fs.write", "fs.close", "fs.rename", "fs.remove", "fs.probe")
	layers["depstore.fs_sync_ms"] = per("fs.sync", "fs.syncdir")
	layers["depstore.fs_sync_count"] = float64(s.count["fs.sync"]+s.count["fs.syncdir"]) / n
	layers["depstore.bytes_written"] = float64(s.bytes["fs.write"]) / n
	layers["depstore.put_ms"] = per("depstore.put_cpu") + layers["depstore.fs_write_ms"] - probe + layers["depstore.fs_sync_ms"]
	layers["depstore.get_ms"] = per("depstore.get")
	return probe
}

// opOut is one in-process CLI operation.
type opOut struct {
	res    *report.Table5Result
	comps  map[string]*core.Component
	store  *depstore.Store
	client *remote.Client
	rem    *tracedRemote
	dir    string // cold: the operation's own cache directory
	out    []byte
}

// cliTracer replays fsdep's work in-process: the same calls cmd/fsdep
// makes, on a store configured as the workload configures it.
type cliTracer struct {
	cfg       config
	tr        *tracer
	rp        *replayer
	scenarios []core.Scenario
	sopts     sched.Options
	dir       string // warm: the primed cache; cold: parent of per-op caches
	url       string // remote: the daemon
	n         int
}

func (ct *cliTracer) op(traced bool) (*opOut, error) {
	ct.n++
	o := &opOut{comps: corpus.Components()}
	opts := depstore.Options{HotRecords: depstore.DefaultHotRecords}
	switch ct.cfg.workload {
	case "cold":
		// The first run that persists into an empty cache directory: the
		// untraced operation plus the record writes it leaves out, so
		// the trace shows what persisting costs layer by layer.
		o.dir = filepath.Join(ct.dir, strconv.Itoa(ct.n))
		opts.Dir = o.dir
	case "warm":
		opts.Dir = ct.dir
	case "remote":
		o.client = remote.NewWithConfig(ct.url, remote.Config{})
		start := time.Now()
		err := o.client.Ping()
		ct.tr.inner("remote.ping", start, 0)
		if err != nil {
			return o, err
		}
		opts.Remote = o.client
		if traced {
			o.rem = &tracedRemote{t: ct.tr, c: o.client}
			opts.Remote = o.rem
		}
	}
	if traced && opts.Dir != "" {
		opts.FS = tracedFS{t: ct.tr, fs: depstore.OSFS{}}
	}
	var err error
	if o.store, err = depstore.OpenWith(opts); err != nil {
		return o, err
	}
	if o.res, err = report.RunTable5Opts(o.comps, core.Options{Mode: taint.Intra, Store: o.store}, ct.sopts); err != nil {
		return o, err
	}
	var buf bytes.Buffer
	err = o.res.Render(&buf)
	o.out = buf.Bytes()
	return o, err
}

// cliCounts accumulates the counters of the traced operations.
type cliCounts struct {
	ops, compiles, engineRuns                 float64
	hits, hotHits, misses, prefetched         float64
	roundTrips, wireBytes, rawBytes, wireRuns float64
}

func progMisses() uint64 {
	_, m := core.ProgramCacheStats()
	return m
}

// traceCLI alternates untraced and traced in-process operations until
// the deadline, replaying each traced operation's layers after it.
func traceCLI(ctx context.Context, cfg config, tr *tracer, rep *outcome, layers map[string]float64, until time.Time) error {
	ref, err := reference(ctx, cfg)
	if err != nil {
		return err
	}
	// A CLI process starts with an empty program cache, so the replay
	// must not reuse programs compiled by earlier operations.
	prev := core.SetProgramCacheCapacity(0)
	defer core.SetProgramCacheCapacity(prev)
	rp, err := newReplayer(tr)
	if err != nil {
		return err
	}
	// One worker, unlike the CLI's GOMAXPROCS: spans then nest, so a
	// parent's self time is its duration minus its children's.
	// sched.speedup reports what the extra workers are worth.
	ct := &cliTracer{cfg: cfg, tr: tr, rp: rp, scenarios: corpus.Scenarios(), sopts: sched.Sequential()}
	switch cfg.workload {
	case "cold":
		ct.dir = filepath.Join(cfg.work, "trace-cold")
	case "warm":
		ct.dir = filepath.Join(cfg.work, "trace-warm")
		if r, err := runCLI(ctx, cfg, "-cache-dir", ct.dir); err != nil || !bytes.Equal(r.stdout, ref) {
			return fmt.Errorf("priming %s failed: %v %s", ct.dir, err, r.stderr)
		}
	case "remote":
		d, err := startDaemon(ctx, cfg, "trace-remote")
		if err != nil {
			return err
		}
		defer d.stop()
		ct.url = d.url
	}
	unique, sigs := corpusShape(corpus.Components(), ct.scenarios)
	var c cliCounts
	var traced, untraced []float64
	for i := 0; time.Now().Before(until); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, on := range [2]bool{i%2 == 0, i%2 == 1} {
			misses := progMisses()
			start := time.Now()
			if on {
				tr.on.Store(true)
				tr.beginOp("op")
			}
			o, err := ct.op(on)
			if on {
				tr.endOp()
				tr.on.Store(false)
			}
			elapsed := ms(time.Since(start))
			rep.Attempted++
			if err == nil && !bytes.Equal(o.out, ref) {
				err = fmt.Errorf("output differs from the fsdep reference")
			}
			if err == nil && on {
				err = ct.account(o, &c, float64(progMisses()-misses), unique, sigs)
			}
			if o.dir != "" {
				os.RemoveAll(o.dir)
			}
			if err != nil {
				rep.Failed++
				tr.takeIO()
				if rep.Failed <= 3 {
					fmt.Fprintf(os.Stderr, "fsdepbench: traced %s op failed: %v\n", cfg.workload, err)
				}
				continue
			}
			if on {
				traced = append(traced, elapsed)
			} else {
				untraced = append(untraced, elapsed)
			}
		}
	}
	if c.ops == 0 {
		return fmt.Errorf("no traced operation succeeded")
	}
	ct.layers(layers, c, traced, untraced)
	return nil
}

// account adds one traced operation's counters and replays its layers.
func (ct *cliTracer) account(o *opOut, c *cliCounts, compiles float64, unique []*core.Component, sigs []signature) error {
	c.ops++
	c.compiles += compiles
	engineRuns := core.TotalCacheStats(o.comps).EngineRuns
	c.engineRuns += float64(engineRuns)
	st := o.store.Stats()
	c.hits += float64(st.Hits)
	c.hotHits += float64(st.HotHits)
	c.misses += float64(st.Misses)
	c.prefetched += float64(st.Prefetched)

	if compiles > 0 {
		for _, comp := range unique {
			if _, err := ct.rp.compile(comp.Name, comp.Source); err != nil {
				return err
			}
		}
	}
	if engineRuns > 0 {
		ct.rp.fixpoint(sigs)
	}
	ct.tr.replay("corpus.score", func() {
		for _, row := range o.res.Rows {
			corpus.Score(row.Deps.Deps())
		}
		corpus.Score(o.res.Union.Deps.Deps())
	})
	ct.tr.replay("report.render", func() { _ = o.res.Render(io.Discard) })

	writes, reads := ct.tr.takeIO()
	ct.rp.writes(writes)
	switch ct.cfg.workload {
	case "warm":
		fresh, err := depstore.OpenWith(depstore.Options{Dir: ct.dir, HotRecords: depstore.DefaultHotRecords})
		if err != nil {
			return err
		}
		ct.rp.reads(reads, func(kind, key string) { fresh.Get(kind, key) })
	case "remote":
		// A remote-only store answers from the records its prefetch put
		// in the hot tier: the scenario records, on a warm start.
		for _, ref := range core.PrefetchRefs(o.comps, ct.scenarios, core.Options{Mode: taint.Intra}) {
			if ref.Kind != depstore.KindScenario {
				continue
			}
			if p, ok := o.store.Get(ref.Kind, ref.Key); ok {
				reads = append(reads, storeRec{ref.Kind, ref.Key, p})
			}
		}
		ct.rp.reads(reads, func(kind, key string) { o.store.Get(kind, key) })
		bs := o.client.Stats()
		c.roundTrips += float64(bs.RoundTrips)
		c.wireBytes += float64(bs.WireBytes)
		c.rawBytes += float64(bs.RawBytes)
		if o.rem.got != nil {
			recs := make([]wire.Record, len(o.rem.refs))
			for i, ref := range o.rem.refs {
				p, ok := o.rem.got[ref]
				recs[i] = wire.Record{Kind: ref.Kind, Key: ref.Key, Payload: p, Missing: !ok}
			}
			var buf bytes.Buffer
			if err := wire.Write(&buf, recs); err != nil {
				return err
			}
			ct.tr.replay("wire.decode", func() { _, _ = wire.ReadAll(bytes.NewReader(buf.Bytes()), 0) })
			c.wireRuns++
		}
	}
	return nil
}

// layers turns the traced operations' spans and counters into the
// per-layer metrics, as means per operation.
func (ct *cliTracer) layers(layers map[string]float64, c cliCounts, traced, untraced []float64) {
	s := ct.tr.sums()
	n := c.ops
	per := func(name string) float64 { return s.ms[name] / n }
	probe := fsLayers(layers, s, n)
	lex, parse, lower := per("minicc.lex"), per("minicc.parse")-per("minicc.lex"), per("ir.lower")
	layers["minicc.lex_ms"] = lex
	layers["minicc.parse_ms"] = parse
	layers["ir.lower_ms"] = lower
	layers["core.compile_count"] = c.compiles / n
	layers["taint.fixpoint_ms"] = per("taint.fixpoint")
	layers["taint.engine_runs"] = c.engineRuns / n
	layers["corpus.score_ms"] = per("corpus.score")
	layers["report.render_ms"] = per("report.render")
	layers["depstore.encode_ms"] = max(0, ct.rp.encodeMs) / n
	layers["depstore.decode_ms"] = max(0, ct.rp.decodeMs) / n
	layers["depstore.hits"] = c.hits / n
	layers["depstore.hot_hits"] = c.hotHits / n
	if c.hits+c.misses > 0 {
		layers["depstore.hit_ratio"] = c.hits / (c.hits + c.misses)
	}
	remoteMs := per("remote.ping") + per("remote.get") + per("remote.put") + per("remote.batch_get") + per("remote.batch_put")
	layers["remote.round_trips"] = c.roundTrips / n
	layers["remote.batch_get_ms"] = per("remote.batch_get")
	layers["remote.wire_bytes"] = c.wireBytes / n
	layers["remote.raw_bytes"] = c.rawBytes / n
	if c.prefetched > 0 {
		layers["remote.records_used_ratio"] = c.hits / c.prefetched
	}
	if c.wireRuns > 0 {
		layers["wire.decode_ms"] = s.ms["wire.decode"] / c.wireRuns
	}

	// The operation's self time is what its replayed and seam-timed
	// children leave over: derivation, memo and key work, scheduling.
	children := lex + parse + lower + layers["taint.fixpoint_ms"] + layers["corpus.score_ms"] +
		layers["report.render_ms"] + layers["depstore.encode_ms"] + layers["depstore.put_ms"] + probe +
		layers["depstore.get_ms"] + layers["depstore.decode_ms"] + remoteMs
	if layers["depstore.get_ms"] == 0 {
		children += layers["depstore.fs_read_ms"] // lookups that missed
	}
	layers["core.analyze_self_ms"] = max(0, per("op")-children)
	layers["trace.overhead_pct"] = (stats.Median(traced)/stats.Median(untraced) - 1) * 100
}

// daemonReplays is how many times the sweep and the trial are replayed.
const daemonReplays = 5

// traceDaemon serves fsdepd's handler in-process behind the timing
// middleware and drives it with the daemon mix at the reference rate;
// then it replays the layers the requests ran inside the handlers.
func traceDaemon(ctx context.Context, cfg config, tr *tracer, rep *outcome, layers map[string]float64, until time.Time) error {
	dir := filepath.Join(cfg.work, "trace-daemon-store")
	store, err := depstore.OpenWith(depstore.Options{
		Dir: dir, HotRecords: depstore.DefaultHotRecords, FS: tracedFS{t: tr, fs: depstore.OSFS{}},
	})
	if err != nil {
		return err
	}
	sopts := sched.Options{Workers: runtime.GOMAXPROCS(0)}
	an, err := service.New(corpus.Components(), corpus.Scenarios(), core.Options{Mode: taint.Intra, Store: store}, sopts)
	if err != nil {
		return err
	}
	defer an.Close()
	if _, err := an.Results(); err != nil {
		return err
	}
	handler := tr.middleware(service.NewServer(an, store, corpus.Score, "ext4").Handler())
	srv := httptest.NewServer(handler)
	defer srv.Close()
	in, err := newDaemonInputs(ctx, cfg)
	if err != nil {
		return err
	}
	rf, err := fetchRefs(srv.URL, in.uploads, in.cliDeps)
	if err != nil {
		return err
	}

	// The load takes four fifths of the run; the replays take the rest.
	m := newMix(cfg.seed, len(rf.scenarios))
	ps0, mi0 := store.Stats(), progMisses()
	tr.on.Store(true)
	r := loadgen(ctx, srv.URL, rf, m, cfg.rungs[refRung], time.Until(until)*4/5, nil)
	tr.on.Store(false)
	rep.Attempted += r.attempted
	rep.Failed += r.failed()
	n := float64(tr.requests.Load())
	if n == 0 {
		return fmt.Errorf("no traced request")
	}
	ps1 := store.Stats()
	compiles := float64(progMisses() - mi0)
	hits, misses := float64(ps1.Hits-ps0.Hits), float64(ps1.Misses-ps0.Misses)

	rp, err := newReplayer(tr)
	if err != nil {
		return err
	}
	writes, reads := tr.takeIO()
	// Every converged engine run persists one taint record, so the
	// records written count the runs; the session's own counters restart
	// whenever an upload replaces a component.
	var engineRuns float64
	for _, w := range writes {
		if w.kind == depstore.KindTaint {
			engineRuns++
		}
	}
	rp.writes(writes)
	fresh, err := depstore.OpenWith(depstore.Options{Dir: dir, HotRecords: depstore.DefaultHotRecords})
	if err != nil {
		return err
	}
	rp.reads(reads, func(kind, key string) { fresh.Get(kind, key) })

	// Uploads compile the new source inside the handler; the program
	// cache answers the ones it still holds, so the replayed frontend
	// time is scaled to the compiles that really happened.
	for u := 0; u < m.uploads; u++ {
		if _, err := rp.compile(corpus.Resize2fs, variantSource(cfg.seed, u%variants)); err != nil {
			return err
		}
	}
	compileShare := 0.0
	if m.uploads > 0 {
		compileShare = compiles / float64(m.uploads)
	}
	_, sigs := corpusShape(corpus.Components(), corpus.Scenarios())
	var resizeSigs []signature
	for _, sg := range sigs {
		if sg.comp.Name == corpus.Resize2fs {
			resizeSigs = append(resizeSigs, sg)
		}
	}
	var engine []float64
	for i := 0; i < daemonReplays; i++ {
		for _, d := range rp.fixpoint(resizeSigs) {
			engine = append(engine, ms(d))
		}
	}
	results, err := an.Results()
	if err != nil {
		return err
	}
	union, err := an.Union()
	if err != nil {
		return err
	}
	var scoreScenario []float64
	for _, res := range results {
		scoreScenario = append(scoreScenario, ms(tr.replay("corpus.score", func() { corpus.Score(res.Deps.Deps()) })))
	}
	scoreUnion := ms(tr.replay("corpus.score", func() { corpus.Score(union.Deps()) }))
	for i := 0; i < daemonReplays; i++ {
		tr.replay("conhandleck.run", func() { conhandleck.RunParallel(union, sopts) })
		if err := replayTrial(tr); err != nil {
			return err
		}
	}

	s := tr.sums()
	per := func(name string) float64 { return s.ms[name] / n }
	fsLayers(layers, s, n)
	layers["minicc.lex_ms"] = per("minicc.lex") * compileShare
	layers["minicc.parse_ms"] = (per("minicc.parse") - per("minicc.lex")) * compileShare
	layers["ir.lower_ms"] = per("ir.lower") * compileShare
	layers["core.compile_count"] = compiles / n
	layers["taint.fixpoint_ms"] = stats.Mean(engine) * engineRuns / n
	layers["taint.engine_runs"] = engineRuns / n
	layers["corpus.score_ms"] = (float64(r.kinds[kindDeps])*stats.Mean(scoreScenario) + float64(r.kinds[kindDepsAll])*scoreUnion) / n
	layers["depstore.encode_ms"] = max(0, rp.encodeMs) / n
	layers["depstore.decode_ms"] = max(0, rp.decodeMs) / n
	layers["depstore.hits"] = hits / n
	layers["depstore.hot_hits"] = float64(ps1.HotHits-ps0.HotHits) / n
	if hits+misses > 0 {
		layers["depstore.hit_ratio"] = hits / (hits + misses)
	}
	for _, r := range []string{"deps", "violations", "batch_get", "upload"} {
		layers["service."+r+"_ms"] = stats.Mean(s.durs["service."+r])
	}
	layers["service.shed"] = float64(tr.shed) / n
	for _, name := range []string{"conhandleck.run", "mke2fs.run", "mountsim.do", "resize2fs.run", "e2fsck.run"} {
		layers[name+"_ms"] = stats.Median(s.durs[name])
	}
	layers["loadgen.late_p99_ms"] = stats.Percentile(r.late, 99)
	layers["trace.overhead_pct"] = handlerOverhead(tr, handler, rf, rep)
	return nil
}

// overheadRounds is how many times handlerOverhead serves its request
// set with tracing on, and again with it off.
const overheadRounds = 20

// handlerOverhead serves the same read requests through the handler
// with tracing on and off, alternating which goes first, and returns
// how much longer the traced rounds took, in percent. Reads leave the
// daemon's state as it is, so every round does the same work.
func handlerOverhead(tr *tracer, h http.Handler, rf *refs, rep *outcome) float64 {
	type read struct {
		method, target string
		body, want     []byte
	}
	var reads []read
	for i, sc := range rf.scenarios {
		reads = append(reads, read{http.MethodGet, "/v1/deps?scenario=" + url.QueryEscape(sc), nil, rf.deps[i]})
	}
	reads = append(reads,
		read{http.MethodGet, "/v1/deps", nil, rf.depsAll},
		read{http.MethodGet, "/v1/violations", nil, rf.violations},
		read{http.MethodPost, "/v1/store/batch-get", rf.manifest, rf.batchGet})
	var on, off []float64
	for i := 0; i < 2*overheadRounds; i++ {
		traced := i%4 == 1 || i%4 == 2
		tr.on.Store(traced)
		start := time.Now()
		for _, rd := range reads {
			req := httptest.NewRequest(rd.method, rd.target, bytes.NewReader(rd.body))
			req.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			rep.Attempted++
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), rd.want) {
				rep.Failed++
			}
		}
		elapsed := ms(time.Since(start))
		tr.on.Store(false)
		if traced {
			on = append(on, elapsed)
		} else {
			off = append(off, elapsed)
		}
	}
	return (stats.Median(on)/stats.Median(off) - 1) * 100
}

// replayTrial runs the Figure 1 pipeline a ConHandleCk sweep runs
// inside its trials, one span per tool: mke2fs with sparse_super2,
// mount and unmount, a resize2fs grow, and a read-only e2fsck.
func replayTrial(tr *tracer) error {
	dev := fsim.GetDevice(16 << 20)
	defer fsim.PutDevice(dev)
	var err error
	tr.replay("mke2fs.run", func() {
		_, err = mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024, Features: []string{"sparse_super2"}})
	})
	if err != nil {
		return err
	}
	tr.replay("mountsim.do", func() {
		var m *mountsim.Mount
		if m, err = mountsim.Do(dev, mountsim.Options{}); err == nil {
			err = m.Unmount()
		}
	})
	if err != nil {
		return err
	}
	fs, err := fsim.Open(dev)
	if err != nil {
		return err
	}
	size := fs.SB.BlocksCount + 8192
	tr.replay("resize2fs.run", func() { _, err = resize2fs.Run(dev, resize2fs.Options{Size: size}) })
	if err != nil {
		return err
	}
	// The grown file system carries the Figure 1 corruption; e2fsck
	// reporting it is the trial's expected outcome, not a failure.
	tr.replay("e2fsck.run", func() { _, _ = e2fsck.Run(dev, e2fsck.Options{Force: true, NoChange: true}) })
	return nil
}
