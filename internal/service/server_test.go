package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/sched"
)

// newServerT builds an Analysis over the fixture, a disk store, and an
// httptest server over the full route table.
func newServerT(t *testing.T) (*Analysis, *depstore.Store, *httptest.Server) {
	t.Helper()
	store, err := depstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(svcFixture(), svcScenarios(), core.Options{Store: store}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(a, store, nil, "test").Handler())
	t.Cleanup(ts.Close)
	return a, store, ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", url, body, err)
		}
	}
}

// depsJSON renders a decoded dependency list back to JSON so tests
// compare values, not fmt's pointer addresses inside Constraint.
func depsJSON(t *testing.T, deps []depmodel.Dependency) string {
	t.Helper()
	blob, err := json.Marshal(deps)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestPingAndScenarios(t *testing.T) {
	_, _, ts := newServerT(t)
	var ping map[string]string
	getJSON(t, ts.URL+"/v1/ping", http.StatusOK, &ping)
	if ping["status"] != "ok" || ping["ecosystem"] != "test" {
		t.Errorf("ping = %v", ping)
	}
	var sc struct {
		Scenarios []struct {
			Name       string   `json:"name"`
			Components []string `json:"components"`
		} `json:"scenarios"`
	}
	getJSON(t, ts.URL+"/v1/scenarios", http.StatusOK, &sc)
	if len(sc.Scenarios) != 3 || sc.Scenarios[0].Name != "bridge" {
		t.Errorf("scenarios = %+v", sc)
	}
}

func TestDepsEndpoint(t *testing.T) {
	_, _, ts := newServerT(t)
	var one depsResponse
	getJSON(t, ts.URL+"/v1/deps?scenario=bridge", http.StatusOK, &one)
	if one.Scenario != "bridge" || one.Extracted == 0 || len(one.Dependencies) != one.Extracted {
		t.Errorf("bridge deps = %+v", one)
	}
	var union depsResponse
	getJSON(t, ts.URL+"/v1/deps", http.StatusOK, &union)
	if union.Scenario != "all-scenarios" || union.Extracted < one.Extracted {
		t.Errorf("union deps = %+v", union)
	}
	getJSON(t, ts.URL+"/v1/deps?scenario=ghost", http.StatusNotFound, nil)
}

func TestUploadEndpoint(t *testing.T) {
	_, _, ts := newServerT(t)
	var before depsResponse
	getJSON(t, ts.URL+"/v1/deps?scenario=bridge", http.StatusOK, &before)

	edited := strings.Replace(svcReaderSrc, "512", "2048", 1)
	body, _ := json.Marshal(map[string]any{"source": edited})
	resp, err := http.Post(ts.URL+"/v1/components/reader", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var up uploadResponse
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload = %d: %s", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &up); err != nil {
		t.Fatal(err)
	}
	if up.Component != "reader" || !up.Reanalyzed ||
		fmt.Sprint(up.StaleScenarios) != "[bridge all]" {
		t.Errorf("upload response = %+v", up)
	}

	var after depsResponse
	getJSON(t, ts.URL+"/v1/deps?scenario=bridge", http.StatusOK, &after)
	if depsJSON(t, after.Dependencies) == depsJSON(t, before.Dependencies) {
		t.Error("upload did not change the served extraction")
	}

	// Broken source: 422, and the served world is unchanged.
	bad, _ := json.Marshal(map[string]any{"source": "int f( {"})
	resp, err = http.Post(ts.URL+"/v1/components/reader", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken upload = %d, want 422", resp.StatusCode)
	}
	var again depsResponse
	getJSON(t, ts.URL+"/v1/deps?scenario=bridge", http.StatusOK, &again)
	if depsJSON(t, again.Dependencies) != depsJSON(t, after.Dependencies) {
		t.Error("rejected upload changed the served extraction")
	}

	resp, err = http.Post(ts.URL+"/v1/components/ghost", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-component upload = %d, want 404", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	a, _, ts := newServerT(t)
	if _, err := a.Results(); err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if !st.Ran || st.Ecosystem != "test" {
		t.Errorf("stats = %+v", st)
	}
	if st.Taint.EngineRuns == 0 {
		t.Error("cold daemon reports zero engine runs after a full analysis")
	}
	if st.Store == nil || st.Store.Writes == 0 {
		t.Errorf("store counters missing or empty: %+v", st.Store)
	}
}

// postStatus POSTs body to url, asserts the answer's status, and
// returns the (transparently decompressed) answer body.
func postStatus(t *testing.T, url string, body []byte, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, got)
	}
	return got
}

// manifestJSON renders a batch-get request body.
func manifestJSON(t *testing.T, refs ...wire.Ref) []byte {
	t.Helper()
	blob, err := json.Marshal(wire.Manifest{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// framedBatch renders a batch-put request body.
func framedBatch(t *testing.T, recs ...wire.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreEndpoints(t *testing.T) {
	_, _, ts := newServerT(t)
	key := depstore.Key("wire-record")
	getURL, putURL := ts.URL+"/v1/store/batch-get", ts.URL+"/v1/store/batch-put"

	// An absent record comes back as an explicit miss frame.
	body := postStatus(t, getURL, manifestJSON(t, wire.Ref{Kind: "taint", Key: key}), http.StatusOK)
	recs, err := wire.ReadAll(bytes.NewReader(body), 0)
	if err != nil || len(recs) != 1 || !recs[0].Missing {
		t.Fatalf("batch-get of an absent record = %+v, %v; want one miss frame", recs, err)
	}

	// Malformed references are rejected before touching the store.
	for _, bad := range []wire.Ref{
		{Kind: "TAINT", Key: key},                      // uppercase kind
		{Kind: "taint", Key: "short"},                  // non-hex, too-short key
		{Kind: "taint", Key: strings.Repeat("ab", 80)}, // oversized key
	} {
		postStatus(t, getURL, manifestJSON(t, bad), http.StatusBadRequest)
	}
	postStatus(t, putURL, framedBatch(t, wire.Record{Kind: "taint", Key: "../../escape", Payload: []byte("x")}),
		http.StatusBadRequest)
}

func TestStoreEndpointsWithoutStore(t *testing.T) {
	a, err := New(svcFixture(), svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(a, nil, nil, "test").Handler())
	defer ts.Close()
	key := depstore.Key("x")
	postStatus(t, ts.URL+"/v1/store/batch-get", manifestJSON(t, wire.Ref{Kind: "taint", Key: key}),
		http.StatusServiceUnavailable)
	postStatus(t, ts.URL+"/v1/store/batch-put", framedBatch(t, wire.Record{Kind: "taint", Key: key, Payload: []byte("x")}),
		http.StatusServiceUnavailable)
}

// TestRemoteTierWarmStart is the fleet contract end to end, in
// process: client one runs cold against a daemon's store over HTTP and
// warms it; client two — a different process-worth of state — answers
// every scenario from the daemon with zero taint-engine executions and
// identical results.
func TestRemoteTierWarmStart(t *testing.T) {
	_, daemonStore, ts := newServerT(t)

	runClient := func() (string, core.CacheStats, depstore.StoreStats) {
		store, err := depstore.OpenTiered("", remote.New(ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		comps := svcFixture()
		res, err := core.AnalyzeAll(comps, svcScenarios(), core.Options{Store: store}, sched.Sequential())
		if err != nil {
			t.Fatal(err)
		}
		return renderResults(t, res), core.TotalCacheStats(comps), store.Stats()
	}

	out1, cs1, ss1 := runClient()
	if cs1.EngineRuns == 0 {
		t.Fatal("first client ran no engines — the warm-start test is vacuous")
	}
	if ss1.RemoteWrites == 0 {
		t.Fatalf("first client pushed nothing to the daemon: %+v", ss1)
	}

	out2, cs2, ss2 := runClient()
	if out2 != out1 {
		t.Errorf("second client's results differ:\nwant %s\ngot  %s", out1, out2)
	}
	if cs2.EngineRuns != 0 {
		t.Errorf("second client executed the engine %d times, want 0 (%+v)", cs2.EngineRuns, cs2)
	}
	if ss2.RemoteHits == 0 {
		t.Errorf("second client never hit the daemon store: %+v", ss2)
	}

	dst := daemonStore.Stats()
	if dst.Writes == 0 || dst.Hits == 0 {
		t.Errorf("daemon store never exercised: %+v", dst)
	}
}
