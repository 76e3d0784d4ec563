package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"fsdep/bench/stats"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/prng"
	"fsdep/internal/taint"
)

// ladder is the daemon workload's open-loop rates in requests per
// second: about 1/8, 1/4, 1/2 and 1x the closed-loop capacity of
// fsdepd with two connections, as `fsdepbench calibrate` measured it
// on the 2-core reference box (see README.md). refRung names the rung
// whose latencies are reported end to end.
var ladder = []float64{90, 180, 360, 720}

// sloMs is the latency limit on a rung's p99 for max_rps_under_slo.
const sloMs = 25

// maxLateMs is the generator lateness (p99) beyond which a rung is
// invalid: the generator, not the daemon, would be limiting the load.
const maxLateMs = 5

// conns is the number of connections the generator uses: one per core
// of the reference box, so the load comes from at most nproc
// connections.
const conns = 2

// variants is how many distinct upload sources the mix cycles
// through. Each one adds two records to the store (its scenario and
// taint records), so together they outgrow the daemon's 512-record hot
// tier and re-uploads read their records back from disk.
const variants = 320

// Request kinds of the daemon mix, with their weights in percent.
type reqKind int

const (
	kindDeps reqKind = iota
	kindDepsAll
	kindBatchGet
	kindViolations
	kindUpload
	numKinds
)

var (
	kindWeight = [numKinds]int{40, 10, 30, 15, 5}
	kindName   = [numKinds]string{"deps", "deps_all", "batch_get", "violations", "upload"}
)

// planned is one request of the seeded mix.
type planned struct {
	kind     reqKind
	scenario int // kindDeps
	variant  int // kindUpload
}

// mix draws the seeded request sequence. Kinds are dealt from a
// shuffled deck of 100 holding each kind as often as its weight, so
// every hundred requests carry the mix exactly: drawn independently,
// the share of slow kinds in a rung moved with the seed, and the
// rung's percentiles with it. Uploads cycle through the variants in
// order, so every variant is used before any repeats.
type mix struct {
	rng       *prng.Source
	scenarios int
	uploads   int
	deck      []reqKind // kinds not yet dealt from the current deck
}

func newMix(seed uint64, scenarios int) *mix {
	return &mix{rng: prng.New(prng.Derive(seed, 0x6d6978)), scenarios: scenarios}
}

func (m *mix) next() planned {
	if len(m.deck) == 0 {
		for k := reqKind(0); k < numKinds; k++ {
			for i := 0; i < kindWeight[k]; i++ {
				m.deck = append(m.deck, k)
			}
		}
		for i := len(m.deck) - 1; i > 0; i-- {
			j := m.rng.Intn(i + 1)
			m.deck[i], m.deck[j] = m.deck[j], m.deck[i]
		}
	}
	k := m.deck[len(m.deck)-1]
	m.deck = m.deck[:len(m.deck)-1]
	p := planned{kind: k}
	switch k {
	case kindDeps:
		p.scenario = m.rng.Intn(m.scenarios)
	case kindUpload:
		p.variant = m.uploads % variants
		m.uploads++
	}
	return p
}

// uploadBodies returns the seeded upload requests: resize2fs with a
// trailing comment naming the seed and variant. The comment changes
// the component's content hash, so every variant is analysed and
// stored afresh, but it moves no source position, so every extraction
// and every response stays byte-identical to the reference.
func uploadBodies(seed uint64) ([][]byte, error) {
	out := make([][]byte, variants)
	for i := range out {
		body, err := json.Marshal(map[string]string{"source": variantSource(seed, i)})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

func variantSource(seed uint64, i int) string {
	return fmt.Sprintf("%s\n/* fsdepbench seed %d variant %d */\n", corpus.Resize2fsSource, seed, i)
}

// refs holds the reference response bodies every daemon answer is
// compared with, byte for byte.
type refs struct {
	scenarios  []string
	deps       [][]byte
	depsAll    []byte
	violations []byte
	manifest   []byte // batch-get request body: core.PrefetchRefs
	batchGet   []byte // its gzip response
	uploads    [][]byte
	stale      []string // scenarios an upload of resize2fs makes stale
}

func get(c *http.Client, u string) (int, []byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(c *http.Client, u string, body []byte, gz bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		// Set by hand, so the transport hands back the compressed bytes.
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// cliDeps returns the dependency array of fsdep's -json document for
// one scenario ("" = all scenarios), compacted.
func cliDeps(ctx context.Context, cfg config, scenario string) ([]byte, error) {
	path := filepath.Join(cfg.work, "ref.json")
	args := []string{"-cache-dir", "", "-json", path}
	if scenario != "" {
		args = append(args, "-scenario", scenario)
	}
	r, err := runCLI(ctx, cfg, args...)
	if err != nil {
		return nil, err
	}
	if r.exit != 0 {
		return nil, fmt.Errorf("fsdep %v: exit %d: %s", args, r.exit, r.stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return depsArray(raw)
}

func depsArray(doc []byte) ([]byte, error) {
	var d struct {
		Dependencies json.RawMessage `json:"dependencies"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, d.Dependencies); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cliOracle returns the dependency arrays of fsdep's -json documents,
// by scenario ("" for all scenarios): what every daemon deps answer
// must carry.
func cliOracle(ctx context.Context, cfg config) (map[string][]byte, error) {
	want := map[string][]byte{}
	names := []string{""}
	for _, sc := range corpus.Scenarios() {
		names = append(names, sc.Name)
	}
	for _, sc := range names {
		deps, err := cliDeps(ctx, cfg, sc)
		if err != nil {
			return nil, err
		}
		want[sc] = deps
	}
	return want, nil
}

// fetchRefs captures the reference bodies from a freshly started
// daemon and checks them: every deps answer equals the CLI's -json
// extraction of the same scenario (cliDeps, from cliOracle), the
// violations report finds the one silent corruption, and batch-get
// returns every manifest ref.
func fetchRefs(base string, uploads [][]byte, cliDeps map[string][]byte) (*refs, error) {
	c := &http.Client{}
	rf := &refs{uploads: uploads}
	for _, sc := range corpus.Scenarios() {
		rf.scenarios = append(rf.scenarios, sc.Name)
		if slices.Contains(sc.Components, corpus.Resize2fs) {
			rf.stale = append(rf.stale, sc.Name)
		}
	}
	check := func(what string, body []byte, scenario string) error {
		got, err := depsArray(body)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if !bytes.Equal(got, cliDeps[scenario]) {
			return fmt.Errorf("%s differs from fsdep -json", what)
		}
		return nil
	}
	for _, sc := range rf.scenarios {
		status, body, err := get(c, base+"/v1/deps?scenario="+url.QueryEscape(sc))
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("deps %s: HTTP %d: %v", sc, status, err)
		}
		if err := check("deps "+sc, body, sc); err != nil {
			return nil, err
		}
		rf.deps = append(rf.deps, body)
	}
	status, body, err := get(c, base+"/v1/deps")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("deps: HTTP %d: %v", status, err)
	}
	if err := check("deps (all scenarios)", body, ""); err != nil {
		return nil, err
	}
	rf.depsAll = body

	status, body, err = get(c, base+"/v1/violations")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("violations: HTTP %d: %v", status, err)
	}
	var vio struct {
		Silent int `json:"silent_corruptions"`
	}
	if err := json.Unmarshal(body, &vio); err != nil || vio.Silent != 1 {
		return nil, fmt.Errorf("violations report has %d silent corruptions, want 1 (%v)", vio.Silent, err)
	}
	rf.violations = body

	manifest := core.PrefetchRefs(corpus.Components(), corpus.Scenarios(), core.Options{Mode: taint.Intra})
	type ref struct {
		Kind string `json:"kind"`
		Key  string `json:"key"`
	}
	var m struct {
		Refs []ref `json:"refs"`
	}
	for _, r := range manifest {
		m.Refs = append(m.Refs, ref{r.Kind, r.Key})
	}
	if rf.manifest, err = json.Marshal(m); err != nil {
		return nil, err
	}
	status, body, err = post(c, base+"/v1/store/batch-get", rf.manifest, true)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("batch-get: HTTP %d: %v", status, err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("batch-get: %w", err)
	}
	recs, err := wire.ReadAll(zr, 0)
	if err != nil {
		return nil, fmt.Errorf("batch-get: %w", err)
	}
	if len(recs) != len(manifest) {
		return nil, fmt.Errorf("batch-get answered %d of %d refs", len(recs), len(manifest))
	}
	// Every ref is answered in order, as a record or an explicit miss.
	// A daemon flushes summary tables only when it shuts down, so those
	// may miss; the scenario records a warm start reads may not.
	for i, r := range recs {
		if r.Kind != manifest[i].Kind || r.Key != manifest[i].Key || (r.Missing && r.Kind == depstore.KindScenario) {
			return nil, fmt.Errorf("batch-get lacks manifest ref %s/%s", manifest[i].Kind, manifest[i].Key)
		}
	}
	rf.batchGet = body
	return rf, nil
}

// do sends one planned request and checks its answer. A 503 (shed) is
// a failure like any other wrong answer.
func (rf *refs) do(c *http.Client, base string, p planned) error {
	var (
		status int
		body   []byte
		want   []byte
		err    error
	)
	switch p.kind {
	case kindDeps:
		status, body, err = get(c, base+"/v1/deps?scenario="+url.QueryEscape(rf.scenarios[p.scenario]))
		want = rf.deps[p.scenario]
	case kindDepsAll:
		status, body, err = get(c, base+"/v1/deps")
		want = rf.depsAll
	case kindBatchGet:
		status, body, err = post(c, base+"/v1/store/batch-get", rf.manifest, true)
		want = rf.batchGet
	case kindViolations:
		status, body, err = get(c, base+"/v1/violations")
		want = rf.violations
	case kindUpload:
		status, body, err = post(c, base+"/v1/components/"+corpus.Resize2fs, rf.uploads[p.variant], false)
	}
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", kindName[p.kind], status)
	}
	if p.kind == kindUpload {
		return rf.checkUpload(body)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: response differs from the reference", kindName[p.kind])
	}
	return nil
}

// checkUpload checks an upload answer's contract: the component was
// re-analysed and exactly the scenarios containing it went stale. Its
// dependents list is left out: the daemon documents it as a diagnostic
// that shrinks when earlier results came from scenario records, so it
// depends on the session's history, not on the upload.
func (rf *refs) checkUpload(body []byte) error {
	var up struct {
		Component  string   `json:"component"`
		Stale      []string `json:"stale_scenarios"`
		Reanalyzed bool     `json:"reanalyzed"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if up.Component != corpus.Resize2fs || !up.Reanalyzed || strings.Join(up.Stale, ",") != strings.Join(rf.stale, ",") {
		return fmt.Errorf("upload: answer %s, want %s re-analysed with stale scenarios %v", body, corpus.Resize2fs, rf.stale)
	}
	return nil
}

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// rungResult is one rung of the ladder.
type rungResult struct {
	rate      float64
	lat       map[reqKind][]float64 // due-time latency (ms) of timed successes
	all       []float64
	late      []float64
	attempted int           // requests due, warm-up and abandoned ones included
	kinds     [numKinds]int // requests sent, by kind
	errors    int
	abandoned int // requests never sent: the rung's backlog outlasted its drain time
	growing   bool
	cpu       time.Duration // daemon CPU over the timed part
	window    time.Duration // first timed due time to last timed completion
}

func (r *rungResult) p(q float64) float64 { return stats.Percentile(r.all, q) }

// failed counts the requests that got no correct answer: failures,
// wrong answers, sheds and abandoned requests.
func (r *rungResult) failed() int { return r.errors + r.abandoned }

func (r *rungResult) meetsSLO() bool {
	return r.failed() == 0 && !r.growing &&
		len(r.all) > 0 && r.p(99) <= sloMs && stats.Percentile(r.late, 99) <= maxLateMs
}

// loadgen drives one rung: an open loop sending the mix at a constant
// rate over conns connections. The first fifth of the rung is warm-up;
// requests due after it are timed from their due time. Every answer,
// warm-up included, is checked. A sample callback, when set, reads the
// daemon's CPU time at the start and the end of the timed part.
func loadgen(ctx context.Context, base string, rf *refs, m *mix, rate float64, d time.Duration,
	sample func() time.Duration) *rungResult {
	warm := d / 5
	due := stats.Schedule(rate, d)
	plan := make([]planned, len(due))
	for i := range plan {
		plan[i] = m.next()
	}
	reqs := make([]stats.Request, len(due))
	errs := make([]error, len(due))
	depth := make([]int, 0, len(due))
	queue := make(chan int, len(due))
	drainBy := d + 5*time.Second

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range queue {
				if time.Since(t0) > drainBy || ctx.Err() != nil {
					errs[i] = errAbandoned
					continue
				}
				errs[i] = rf.do(c, base, plan[i])
				reqs[i].Done = time.Since(t0)
			}
		}()
	}
	var cpu0 time.Duration
	firstTimed := -1
	for i, at := range due {
		if wait := time.Until(t0.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		if at >= warm && firstTimed < 0 {
			firstTimed = i
			if sample != nil {
				cpu0 = sample()
			}
		}
		reqs[i].Due = at
		reqs[i].Dispatched = time.Since(t0)
		if at >= warm {
			depth = append(depth, len(queue))
		}
		queue <- i
	}
	close(queue)
	wg.Wait()

	r := &rungResult{rate: rate, lat: map[reqKind][]float64{}, growing: stats.Growing(depth)}
	if sample != nil && firstTimed >= 0 {
		r.cpu = sample() - cpu0
	}
	var last time.Duration
	for i := range due {
		r.attempted++
		switch {
		case errors.Is(errs[i], errAbandoned):
			r.abandoned++
			continue
		case errs[i] != nil:
			r.errors++
			if r.errors <= 3 {
				fmt.Fprintf(os.Stderr, "fsdepbench: daemon request failed: %v\n", errs[i])
			}
		}
		r.kinds[plan[i].kind]++
		if firstTimed < 0 || i < firstTimed {
			continue
		}
		r.late = append(r.late, ms(reqs[i].Late()))
		if errs[i] == nil {
			lat := ms(reqs[i].Latency())
			r.all = append(r.all, lat)
			r.lat[plan[i].kind] = append(r.lat[plan[i].kind], lat)
			last = max(last, reqs[i].Done)
		}
	}
	if firstTimed >= 0 {
		r.window = last - due[firstTimed]
	}
	return r
}

var errAbandoned = errors.New("abandoned: the rung's backlog outlasted its drain time")

// daemonFixture is a fresh warm fsdepd plus its reference bodies.
type daemonFixture struct {
	d       *daemon
	rf      *refs
	storeKB float64
}

func (fx *daemonFixture) close() { fx.d.stop() }

// daemonInputs are what every daemon set-up of a run shares: the
// seeded upload bodies and the CLI's extraction to check answers with.
type daemonInputs struct {
	uploads [][]byte
	cliDeps map[string][]byte
}

func newDaemonInputs(ctx context.Context, cfg config) (daemonInputs, error) {
	uploads, err := uploadBodies(cfg.seed)
	if err != nil {
		return daemonInputs{}, err
	}
	deps, err := cliOracle(ctx, cfg)
	return daemonInputs{uploads, deps}, err
}

func setupDaemon(ctx context.Context, cfg config, n int, in daemonInputs) (*daemonFixture, error) {
	d, err := startDaemon(ctx, cfg, fmt.Sprintf("daemon-%d", n))
	if err != nil {
		return nil, err
	}
	rf, err := fetchRefs(d.url, in.uploads, in.cliDeps)
	if err != nil {
		d.stop()
		return nil, err
	}
	_, size, err := storeRecords(d.store)
	if err != nil {
		d.stop()
		return nil, err
	}
	return &daemonFixture{d: d, rf: rf, storeKB: float64(size) / 1024}, nil
}

// refRung is the ladder index whose latencies are the end-to-end
// numbers: the lowest rung. The busier a rung, the more a request's
// wait behind uploads and sweeps depends on how fast the shared host
// runs at the time; on the reference box the 1/4 rung's median spread
// 41% over ten runs, the 1/8 rung's 15% (see README.md).
const refRung = 0

// refShare is the share of the run the reference rung gets, so its
// tail rests on enough samples; the other rungs split the rest.
const refShare = 0.45

func rungDuration(cfg config, i int) time.Duration {
	n := len(cfg.rungs)
	if n == 1 {
		return cfg.duration
	}
	if i == refRung {
		return time.Duration(refShare * float64(cfg.duration))
	}
	return time.Duration((1 - refShare) / float64(n-1) * float64(cfg.duration))
}

// daemonRunWorkload steps a fresh warm fsdepd through the rate ladder.
func daemonRunWorkload(ctx context.Context, cfg config) (*outcome, error) {
	in, err := newDaemonInputs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Set-ups are spread between the rungs, never beside one.
	st := &setupTimer[*daemonFixture]{total: cfg.setups, setup: func(n int) (*daemonFixture, error) { return setupDaemon(ctx, cfg, n, in) }}
	fx, err := st.run()
	if err != nil {
		return nil, err
	}
	defer fx.close()

	rep := newOutcome()
	m := newMix(cfg.seed, len(fx.rf.scenarios))
	sample := func() time.Duration {
		c, err := fx.d.cpu()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsdepbench: reading daemon CPU: %v\n", err)
		}
		return c
	}
	var rungs []*rungResult
	var rss []float64
	for i, rate := range cfg.rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stop func()
		if i == refRung {
			stop = sampleRSS(fx.d, &rss)
		}
		r := loadgen(ctx, fx.d.url, fx.rf, m, rate, rungDuration(cfg, i), sample)
		if stop != nil {
			stop()
		}
		rungs = append(rungs, r)
		rep.Attempted += r.attempted
		rep.Failed += r.failed()
		for st.extrasDue(float64(i+1) / float64(len(cfg.rungs))) {
			if err := st.extra(); err != nil {
				return nil, err
			}
		}
	}
	nrec, _, err := storeRecords(fx.d.store)
	if err != nil {
		return nil, err
	}
	ref := rungs[refRung]
	rep.Correct = rep.Failed == 0

	rep.set("setup_s", st.median(), "s")
	rep.set("op_p50_ms", ref.p(50), "ms")
	rep.set("cpu_ms_per_op", ms(ref.cpu)/float64(len(ref.all)), "ms")
	rep.set("rss_mb", stats.Median(rss)/1024, "MB")
	rep.set("store_kb", fx.storeKB, "KB")
	rep.set("ok_ratio", 1-errorRate(rep), "ratio")

	var reads []float64
	for k := kindDeps; k <= kindViolations; k++ {
		reads = append(reads, ref.lat[k]...)
	}
	tail := stats.TailPercentile(len(ref.all))
	rep.note("op_samples", float64(len(ref.all)), "count")
	rep.note("op_p90_ms", ref.p(90), "ms")
	rep.note("op_tail_percentile", tail, "pct")
	rep.note("op_tail_ms", ref.p(tail), "ms")
	rep.note("query_p50_ms", stats.Percentile(reads, 50), "ms")
	rep.note("query_p99_ms", stats.Percentile(reads, 99), "ms")
	rep.note("upload_p90_ms", stats.Percentile(ref.lat[kindUpload], 90), "ms")
	rep.note("upload_samples", float64(len(ref.lat[kindUpload])), "count")
	for k := reqKind(0); k < numKinds; k++ {
		rep.note(kindName[k]+"_p50_ms", stats.Percentile(ref.lat[k], 50), "ms")
	}
	rep.note("daemon_store_records", float64(nrec), "count")
	best := 0.0
	for i, r := range rungs {
		pre := fmt.Sprintf("rung%d_", i)
		rep.note(pre+"rate", r.rate, "1/s")
		rep.note(pre+"achieved", float64(len(r.all))/r.window.Seconds(), "1/s")
		rep.note(pre+"p50_ms", r.p(50), "ms")
		rep.note(pre+"p90_ms", r.p(90), "ms")
		rep.note(pre+"p99_ms", r.p(99), "ms")
		rep.note(pre+"cpu_ms_per_op", ms(r.cpu)/float64(len(r.all)), "ms")
		rep.note(pre+"late_p99_ms", stats.Percentile(r.late, 99), "ms")
		rep.note(pre+"growing", b2f(r.growing), "bool")
		rep.note(pre+"errors", float64(r.failed()), "count")
		if r.meetsSLO() {
			best = r.rate
		}
	}
	rep.note("max_rps_under_slo", best, "1/s")
	return rep, nil
}

// rssInterval is how often the daemon's resident set is sampled.
const rssInterval = 50 * time.Millisecond

// sampleRSS records the daemon's resident set size (KB) into out until
// the returned stop function is called; stop returns once sampling has
// ended.
func sampleRSS(d *daemon, out *[]float64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if kb, err := d.rssKB(); err == nil {
				*out = append(*out, float64(kb))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// calibrateMain measures fsdepd's closed-loop capacity under the mix
// with conns connections, the basis of the ladder's rates.
func calibrateMain(args []string) int {
	fl := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	seconds := fl.Float64("seconds", 10, "measured duration in seconds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		bin:  filepath.Join(buildDir(), "bin"),
		work: filepath.Join(buildDir(), "work", fmt.Sprintf("calibrate-%d", os.Getpid())),
		seed: 1,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fsdepbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	ctx := context.Background()
	in, err := newDaemonInputs(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdepbench:", err)
		return 1
	}
	fx, err := setupDaemon(ctx, cfg, 0, in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdepbench:", err)
		return 1
	}
	defer fx.close()
	m := newMix(cfg.seed, len(fx.rf.scenarios))
	var mu sync.Mutex
	var n, failed int
	d := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			for time.Since(start) < d {
				mu.Lock()
				p := m.next()
				mu.Unlock()
				err := fx.rf.do(c, fx.d.url, p)
				mu.Lock()
				n++
				if err != nil {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rate := float64(n) / time.Since(start).Seconds()
	fmt.Printf("closed-loop capacity: %.1f requests/s over %d connections (%d requests, %d failed)\n", rate, conns, n, failed)
	fmt.Printf("ladder at 1/8, 1/4, 1/2, 1x: %.0f %.0f %.0f %.0f\n", rate/8, rate/4, rate/2, rate)
	return 0
}
