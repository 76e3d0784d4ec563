package remote

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsdep/internal/depstore/wire"
)

// storeHandler is a minimal fsdepd store surface over an in-memory
// map: batch-get answers a JSON manifest with an uncompressed wire
// stream (misses as explicit frames), batch-put ingests a gzip wire
// stream, and /v1/ping answers 200.
type storeHandler struct {
	mu   sync.Mutex
	recs map[wire.Ref][]byte
}

func newStoreHandler() *storeHandler {
	return &storeHandler{recs: make(map[wire.Ref][]byte)}
}

func (h *storeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.URL.Path {
	case "/v1/ping":
		w.Write([]byte(`{"status":"ok"}`))
	case "/v1/store/batch-get":
		var m wire.Manifest
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs := make([]wire.Record, len(m.Refs))
		for i, ref := range m.Refs {
			p, ok := h.recs[ref]
			recs[i] = wire.Record{Kind: ref.Kind, Key: ref.Key, Payload: p, Missing: !ok}
		}
		wire.Write(w, recs)
	case "/v1/store/batch-put":
		gz, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs, err := wire.ReadAll(gz, 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, rec := range recs {
			h.recs[wire.Ref{Kind: rec.Kind, Key: rec.Key}] = rec.Payload
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.NotFound(w, r)
	}
}

// fakeClock advances instantly on Sleep and records every sleep, so
// backoff and cooldown behavior is asserted without wall-blocking.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
}

// Advance moves time forward without a sleep — the test standing in
// for "a cooldown's worth of real time passed".
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// testConfig is a fast deterministic config: no retries (each request
// is one attempt, so breaker counts are predictable), fake clock.
func testConfig(clk Clock) Config {
	return Config{
		RequestTimeout: time.Second,
		MaxRetries:     -1, // normalized to 0: single attempt
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
		Threshold:      3,
		Cooldown:       time.Second,
		Seed:           1,
		Clock:          clk,
	}
}

func TestPingAndRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newStoreHandler())
	defer ts.Close()
	c := New(ts.URL + "/") // trailing slash must be tolerated
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, ok := c.Get("taint", "deadbeef"); ok {
		t.Fatal("absent record reported present")
	}
	payload := []byte(`{"v":1}`)
	if err := c.Put("taint", "deadbeef", payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := c.Get("taint", "deadbeef")
	if !ok || string(got) != string(payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
}

func TestPingRejectsBadURL(t *testing.T) {
	if err := New("not a url").Ping(); err == nil {
		t.Error("ping accepted a malformed URL")
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	clk := newFakeClock()
	if err := NewWithConfig(url, testConfig(clk)).Ping(); err == nil {
		t.Error("ping reached a closed server")
	}
}

func TestMissDoesNotTripBreaker(t *testing.T) {
	ts := httptest.NewServer(newStoreHandler())
	defer ts.Close()
	c := NewWithConfig(ts.URL, testConfig(newFakeClock()))
	for i := 0; i < 5; i++ {
		if _, ok := c.Get("taint", "deadbeef"); ok {
			t.Fatal("phantom hit")
		}
	}
	if st := c.Stats(); st.State != "closed" || st.Opens != 0 {
		t.Errorf("healthy misses tripped the breaker: %+v", st)
	}
}

func TestBreakerOpensAndShortCircuits(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	clk := newFakeClock()
	c := NewWithConfig(ts.URL, testConfig(clk))
	for i := 0; i < 3; i++ {
		if _, ok := c.Get("taint", "deadbeef"); ok {
			t.Fatal("hit from a failing server")
		}
	}
	st := c.Stats()
	if st.State != "open" || st.Opens != 1 {
		t.Fatalf("after %d failures stats = %+v, want open breaker", 3, st)
	}
	// Within the cooldown every request short-circuits: a miss for Get,
	// a typed ErrUnavailable for Put, and zero traffic to the daemon.
	before := hits.Load()
	if _, ok := c.Get("taint", "deadbeef"); ok {
		t.Error("open breaker returned a hit")
	}
	if err := c.Put("taint", "deadbeef", []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Errorf("open-breaker put error = %v, want ErrUnavailable", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("open-breaker ping error = %v, want ErrUnavailable", err)
	}
	if hits.Load() != before {
		t.Errorf("open breaker let %d requests through", hits.Load()-before)
	}
	if st := c.Stats(); st.ShortCircuits != 3 {
		t.Errorf("stats = %+v, want 3 short circuits", st)
	}
}

func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	inner := newStoreHandler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewWithConfig(ts.URL, cfg)
	for i := 0; i < cfg.Threshold; i++ {
		c.Get("taint", "deadbeef")
	}
	if st := c.Stats(); st.State != "open" {
		t.Fatalf("stats = %+v, want open", st)
	}
	// Daemon comes back; cooldown elapses; the next request is the
	// half-open probe and its success re-closes the breaker.
	failing.Store(false)
	clk.Advance(cfg.Cooldown)
	if _, ok := c.Get("taint", "deadbeef"); ok {
		t.Fatal("probe miss reported as hit")
	}
	st := c.Stats()
	if st.State != "closed" || st.Probes != 1 || st.Recloses != 1 {
		t.Fatalf("after probe stats = %+v, want closed with 1 probe + 1 reclose", st)
	}
	// Fully recovered: round-trips work again.
	if err := c.Put("taint", "deadbeef", []byte(`{"v":2}`)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if got, ok := c.Get("taint", "deadbeef"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("post-recovery get = %q, %v", got, ok)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	clk := newFakeClock()
	cfg := testConfig(clk)
	c := NewWithConfig(ts.URL, cfg)
	for i := 0; i < cfg.Threshold; i++ {
		c.Get("taint", "deadbeef")
	}
	clk.Advance(cfg.Cooldown)
	before := hits.Load()
	c.Get("taint", "deadbeef") // the probe: exactly one request, fails
	if hits.Load() != before+1 {
		t.Fatalf("probe sent %d requests, want 1", hits.Load()-before)
	}
	st := c.Stats()
	if st.State != "open" || st.Probes != 1 || st.Recloses != 0 {
		t.Fatalf("after failed probe stats = %+v, want re-opened", st)
	}
	// Re-opened: short-circuiting again until the next cooldown.
	before = hits.Load()
	c.Get("taint", "deadbeef")
	if hits.Load() != before {
		t.Error("re-opened breaker let a request through before the cooldown")
	}
	// And the cycle repeats: next cooldown earns exactly one more probe.
	clk.Advance(cfg.Cooldown)
	c.Get("taint", "deadbeef")
	if st := c.Stats(); st.Probes != 2 {
		t.Errorf("stats = %+v, want a second probe after the second cooldown", st)
	}
}

func TestRetriesRecoverAndBackoffIsDeterministic(t *testing.T) {
	run := func(seed uint64) ([]time.Duration, Stats) {
		var calls atomic.Int64
		inner := newStoreHandler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		defer ts.Close()
		clk := newFakeClock()
		cfg := testConfig(clk)
		cfg.MaxRetries = 2
		cfg.Seed = seed
		c := NewWithConfig(ts.URL, cfg)
		if err := c.Put("taint", "deadbeef", []byte(`{"v":1}`)); err != nil {
			t.Fatalf("put did not survive two transient failures: %v", err)
		}
		return clk.Sleeps(), c.Stats()
	}
	sleepsA, st := run(42)
	if len(sleepsA) != 2 {
		t.Fatalf("recorded %d backoffs, want 2", len(sleepsA))
	}
	if st.Retries != 2 || st.Failures != 2 || st.State != "closed" {
		t.Errorf("stats = %+v, want 2 retries / 2 failures / closed", st)
	}
	// Exponential shape: attempt 2's backoff window is twice attempt
	// 1's, and both stay within [base/2, base<<k].
	if sleepsA[0] < 5*time.Millisecond || sleepsA[0] > 10*time.Millisecond {
		t.Errorf("backoff 1 = %v, want within [5ms, 10ms]", sleepsA[0])
	}
	if sleepsA[1] < 10*time.Millisecond || sleepsA[1] > 20*time.Millisecond {
		t.Errorf("backoff 2 = %v, want within [10ms, 20ms]", sleepsA[1])
	}
	// Same seed replays the exact jitter; a different seed draws a
	// different (but equally bounded) sequence.
	sleepsB, _ := run(42)
	for i := range sleepsA {
		if sleepsA[i] != sleepsB[i] {
			t.Errorf("same seed, different backoff %d: %v vs %v", i, sleepsA[i], sleepsB[i])
		}
	}
}

func TestLoadShedRetryAfterIsHonored(t *testing.T) {
	var calls atomic.Int64
	inner := newStoreHandler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.MaxRetries = 1
	cfg.BackoffMax = 2 * time.Second
	c := NewWithConfig(ts.URL, cfg)
	if err := c.Put("taint", "deadbeef", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("put did not survive one load-shed answer: %v", err)
	}
	sleeps := clk.Sleeps()
	if len(sleeps) != 1 || sleeps[0] < 500*time.Millisecond {
		t.Errorf("backoffs = %v, want one wait honoring Retry-After: 1", sleeps)
	}
}

func TestServerErrorsTripBreakerButSuccessResets(t *testing.T) {
	var failing atomic.Bool
	inner := newStoreHandler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cfg := testConfig(newFakeClock())
	c := NewWithConfig(ts.URL, cfg)
	failing.Store(true)
	for i := 0; i < cfg.Threshold-1; i++ {
		c.Get("taint", "deadbeef")
	}
	if c.tripped() {
		t.Fatal("breaker opened one failure early")
	}
	// One healthy answer (even a miss) must reset the failure count.
	failing.Store(false)
	c.Get("taint", "deadbeef")
	failing.Store(true)
	for i := 0; i < cfg.Threshold-1; i++ {
		c.Get("taint", "deadbeef")
	}
	if c.tripped() {
		t.Error("success did not reset the breaker count")
	}
}
