package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/workload"
)

// testService is one live compactd instance backed by httptest.
type testService struct {
	ts    *httptest.Server
	queue *Queue
	store *Store
}

func startService(t *testing.T, workers int) *testService {
	t.Helper()
	baseline := runtime.NumGoroutine()
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	queue := NewQueue(store, Options{Workers: workers, MaxPending: 32})
	srv := NewServer(queue)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := queue.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		checkGoroutines(t, baseline)
	})
	return &testService{ts: ts, queue: queue, store: store}
}

func (s *testService) url(path string) string { return s.ts.URL + path }

// postJSON submits a JSON job request and decodes the response.
func (s *testService) postJSON(t *testing.T, body string) (int, jobDTO) {
	t.Helper()
	resp, err := http.Post(s.url("/v1/jobs"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d jobDTO
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatalf("decode job response: %v", err)
		}
	}
	return resp.StatusCode, d
}

// pollDone polls the job until it reaches a terminal state.
func (s *testService) pollDone(t *testing.T, id string) jobDTO {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/v1/jobs/" + id))
		if err != nil {
			t.Fatal(err)
		}
		var d jobDTO
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch d.State {
		case StateDone, StateCached:
			return d
		case StateFailed:
			t.Fatalf("job failed: %s", d.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not complete in time")
	return jobDTO{}
}

// fetchBundle downloads every artifact file listed in the manifest.
func (s *testService) fetchBundle(t *testing.T, key string) map[string][]byte {
	t.Helper()
	resp, err := http.Get(s.url("/v1/artifacts/" + key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: status %d", resp.StatusCode)
	}
	var man struct {
		Files []struct {
			Name string `json:"name"`
			Size int    `json:"size"`
		} `json:"files"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, f := range man.Files {
		r, err := http.Get(s.url("/v1/artifacts/" + key + "/" + f.Name))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status %d", f.Name, r.StatusCode)
		}
		if len(data) != f.Size {
			t.Errorf("artifact %s: %d bytes, manifest says %d", f.Name, len(data), f.Size)
		}
		files[f.Name] = data
	}
	return files
}

const e2eConfigJSON = `{"t0_max_len": 80, "random_t0_len": 150}`

func e2eConfig() workload.Config {
	return workload.Config{T0MaxLen: 80, RandomT0Len: 150}
}

// TestEndToEndRoster is the integration spine: submit a roster circuit
// over HTTP, poll to completion, download the artifact bundle, and diff
// it byte-for-byte against a direct in-process workload.Run with the
// same config. Then resubmit and require a warm cache hit with an
// identical bundle.
func TestEndToEndRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP is slow")
	}
	s := startService(t, 2)

	// Cold submission: computed.
	status, d := s.postJSON(t, `{"roster": "b01", "config": `+e2eConfigJSON+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("cold submit: status %d", status)
	}
	done := s.pollDone(t, d.ID)
	if done.State != StateDone {
		t.Fatalf("cold submit finished as %s", done.State)
	}
	got := s.fetchBundle(t, d.Key)

	// Reference: the same pipeline run directly, no HTTP, no cache.
	entry, ok := gen.FindEntry("b01")
	if !ok {
		t.Fatal("roster circuit b01 missing")
	}
	run, err := workload.Run(entry, e2eConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Files) {
		t.Errorf("bundle has %d files, direct run produced %d", len(got), len(want.Files))
	}
	for name, data := range want.Files {
		if !bytes.Equal(got[name], data) {
			t.Errorf("artifact %s differs between service and direct run (%d vs %d bytes)",
				name, len(got[name]), len(data))
		}
	}

	// Warm resubmission: served from the store, byte-identical, no
	// second computation.
	status2, d2 := s.postJSON(t, `{"roster": "b01", "config": `+e2eConfigJSON+`}`)
	if status2 != http.StatusOK || d2.State != StateCached {
		t.Fatalf("warm submit: status %d state %s", status2, d2.State)
	}
	if d2.Key != d.Key {
		t.Errorf("warm key %s differs from cold key %s", d2.Key, d.Key)
	}
	warm := s.fetchBundle(t, d2.Key)
	for name, data := range got {
		if !bytes.Equal(warm[name], data) {
			t.Errorf("artifact %s differs between cold and warm submission", name)
		}
	}
	if m := s.queue.Metrics(); m.Computations != 1 || m.CacheHits != 1 {
		t.Errorf("metrics after warm hit: computed %d, cache hits %d (want 1, 1)",
			m.Computations, m.CacheHits)
	}

	// The decoded Row must render the same table rows as the fresh run.
	row, err := DecodeRow(&Artifacts{Files: got})
	if err != nil {
		t.Fatal(err)
	}
	fresh := workload.AllTables([]*workload.Row{run.Row()})
	cached := workload.AllTables([]*workload.Row{row})
	if fresh != cached {
		t.Errorf("tables from cached artifacts differ from fresh run:\n--- fresh ---\n%s--- cached ---\n%s", fresh, cached)
	}
}

// TestEndToEndUpload exercises the raw .bench upload path, including
// the name-independence of the cache key.
func TestEndToEndUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP is slow")
	}
	s := startService(t, 1)

	submit := func(name, body string) (int, jobDTO) {
		t.Helper()
		resp, err := http.Post(s.url("/v1/jobs?name="+name), "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d jobDTO
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, d
	}

	status, d := submit("mine", benchBase)
	if status != http.StatusAccepted {
		t.Fatalf("upload: status %d", status)
	}
	done := s.pollDone(t, d.ID)
	if done.Name != "mine" {
		t.Errorf("job name = %q, want mine", done.Name)
	}
	bundle := s.fetchBundle(t, d.Key)
	if _, ok := bundle[FileSummary]; !ok {
		t.Error("bundle missing summary.json")
	}

	// The same netlist with shuffled gates under a different name must
	// hit the same cache entry: the key is content-addressed.
	status2, d2 := submit("other", benchShuffled)
	if status2 != http.StatusOK || d2.State != StateCached {
		t.Errorf("gate-shuffled resubmit: status %d state %s (want cached hit)", status2, d2.State)
	}
	if d2.Key != d.Key {
		t.Errorf("shuffled netlist got key %s, original %s", d2.Key, d.Key)
	}
}

// TestSSEProgress streams a job's progress over SSE and checks the
// phase events and the terminal done event.
func TestSSEProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP is slow")
	}
	s := startService(t, 1)
	status, d := s.postJSON(t, `{"bench": `+jsonString(benchBase)+`, "config": {"t0_max_len": 40, "skip_random": true, "skip_baselines": true}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}

	req, err := http.NewRequest("GET", s.url("/v1/jobs/"+d.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %s", ct)
	}

	var phases []string
	var final jobDTO
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "phase" {
				phases = append(phases, data)
			} else if event == "done" {
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event payload: %v", err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("stream ended with state %q (phases %v, error %q)", final.State, phases, final.Error)
	}
	want := []string{"atpg", "t0", "proposed"}
	if strings.Join(final.Phases, ",") != strings.Join(want, ",") {
		t.Errorf("final phases = %v, want %v", final.Phases, want)
	}
	// The live stream may join late (backlog replay covers it), but it
	// must never invent phases.
	for i, p := range phases {
		if i >= len(want) || p != want[i] {
			t.Errorf("streamed phases = %v, want prefix-consistent with %v", phases, want)
			break
		}
	}
}

// TestUploadErrors checks the structured 4xx responses of the upload
// path.
func TestUploadErrors(t *testing.T) {
	s := startService(t, 1)
	post := func(ct, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(s.url("/v1/jobs"), ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}
	errCode := func(e map[string]any) string {
		inner, _ := e["error"].(map[string]any)
		code, _ := inner["code"].(string)
		return code
	}

	cases := []struct {
		name, ct, body string
		wantStatus     int
		wantCode       string
	}{
		{"malformed netlist", "text/plain", "INPUT(G0", http.StatusBadRequest, "bad_netlist"},
		{"empty body", "text/plain", "", http.StatusBadRequest, "bad_request"},
		{"combinational only", "text/plain", "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\n", http.StatusUnprocessableEntity, "unsupported_circuit"},
		{"malformed json", "application/json", `{"bench": `, http.StatusBadRequest, "bad_request"},
		{"unknown json field", "application/json", `{"benchx": "y"}`, http.StatusBadRequest, "bad_request"},
		{"retired config field", "application/json", `{"roster": "b01", "config": {"batch_words": 4}}`, http.StatusBadRequest, "bad_request"},
		{"retired order field", "application/json", `{"roster": "b01", "config": {"order": "adi"}}`, http.StatusBadRequest, "bad_request"},
		{"retired uncollapsed field", "application/json", `{"roster": "b01", "config": {"uncollapsed": true}}`, http.StatusBadRequest, "bad_request"},
		{"retired t0_compactor field", "application/json", `{"roster": "b01", "config": {"t0_compactor": "restore"}}`, http.StatusBadRequest, "bad_request"},
		{"negative random T0 length", "application/json", `{"roster": "b01", "config": {"random_t0_len": -5}}`, http.StatusBadRequest, "bad_request"},
		{"negative T0 cap", "application/json", `{"roster": "b01", "config": {"t0_max_len": -3}}`, http.StatusBadRequest, "bad_request"},
		{"negative scan flip-flop count", "application/json", `{"roster": "b01", "config": {"scan_ffs": -3}}`, http.StatusBadRequest, "bad_request"},
		{"both T0 arms skipped", "application/json", `{"roster": "b01", "config": {"skip_directed": true, "skip_random": true}}`, http.StatusBadRequest, "bad_request"},
		{"unknown roster", "application/json", `{"roster": "zz9"}`, http.StatusBadRequest, "bad_request"},
		{"no source", "application/json", `{}`, http.StatusBadRequest, "bad_request"},
		{"second json object", "application/json", `{"roster": "b01"}{"roster": "zz9"}`, http.StatusBadRequest, "bad_request"},
		{"trailing garbage", "application/json", `{"roster": "b01"} x`, http.StatusBadRequest, "bad_request"},
		{"trailing newline", "application/json", `{"roster": "b01", "config": ` + e2eConfigJSON + "}\n", http.StatusAccepted, ""},
	}
	for _, tc := range cases {
		resp, e := post(tc.ct, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if code := errCode(e); code != tc.wantCode {
			t.Errorf("%s: error code %q, want %q", tc.name, code, tc.wantCode)
		}
	}

	// Oversized uploads: 413 with the structured payload, whatever the
	// body holds. The whole body is read before it is decoded, so JSON
	// that is malformed early gets 413 too, not 400.
	srvSmall := NewServer(s.queue)
	srvSmall.MaxBodyBytes = 64
	small := httptest.NewServer(srvSmall.Handler())
	defer small.Close()
	pad := strings.Repeat("x", 1024)
	for _, tc := range []struct{ name, ct, body string }{
		{"netlist", "text/plain", pad},
		{"JSON", "application/json", `{"roster": "b01", "name": "` + pad + `"}`},
		{"JSON malformed early", "application/json", `{"roster": b01` + pad},
	} {
		resp, err := http.Post(small.URL+"/v1/jobs", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s upload: status %d, want 413", tc.name, resp.StatusCode)
		}
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if code := errCode(e); code != "payload_too_large" {
			t.Errorf("oversized %s upload: error code %q", tc.name, code)
		}
	}
}

// TestArtifactRoutes covers the artifact endpoints' error paths and
// /healthz + /metrics.
func TestArtifactRoutes(t *testing.T) {
	s := startService(t, 1)
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(s.url(path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "jobs_submitted 0") {
		t.Errorf("metrics: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/v1/jobs/j999999"); resp.StatusCode != 404 {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/artifacts/zz"); resp.StatusCode != 400 {
		t.Errorf("malformed key: status %d", resp.StatusCode)
	}
	missing := Key{Circuit: strings.Repeat("ab", 32), Config: strings.Repeat("cd", 16)}
	if resp, _ := get("/v1/artifacts/" + missing.String()); resp.StatusCode != 404 {
		t.Errorf("missing bundle: status %d", resp.StatusCode)
	}
}

// BenchmarkSubmitHit times one warm hit through the API's handler: the
// JSON POST of an upload whose bundle is stored, then the GET of its
// summary.json. The upload is s298 with the config of the benchmark's
// service workload; set-up computes its bundle once.
func BenchmarkSubmitHit(b *testing.B) {
	store, err := OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	q := NewQueue(store, Options{Workers: 1})
	defer q.Close(context.Background())
	h := NewServer(q).Handler()
	ckt, ok := gen.RosterCircuit("s298")
	if !ok {
		b.Fatal("roster circuit s298 missing")
	}
	body := `{"name": "s298", "bench": ` + jsonString(bench.WriteString(ckt)) +
		`, "config": {"seed": 1, "t0_max_len": 60, "random_t0_len": 200, "workers": 1}}`
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	var d jobDTO
	if err := json.Unmarshal(serve(http.MethodPost, "/v1/jobs", body).Body.Bytes(), &d); err != nil {
		b.Fatal(err)
	}
	j, ok := q.Lookup(d.ID)
	if !ok {
		b.Fatalf("cold submission: no job %q", d.ID)
	}
	if err := j.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	summary := "/v1/artifacts/" + d.Key + "/" + FileSummary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(http.MethodPost, "/v1/jobs", body); rec.Code != http.StatusOK {
			b.Fatalf("warm POST: status %d, want 200", rec.Code)
		}
		if rec := serve(http.MethodGet, summary, ""); rec.Code != http.StatusOK {
			b.Fatalf("GET %s: status %d", summary, rec.Code)
		}
	}
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// checkGoroutines fails the test if the goroutine count has not
// returned to (near) the baseline after the service shut down.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+2 { // runtime helpers come and go
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutine leak: %d goroutines, baseline %d\n%s", n, baseline, buf)
}
