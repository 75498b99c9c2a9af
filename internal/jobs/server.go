package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/workload"
)

// Server exposes a Queue (and its Store) as a JSON HTTP API:
//
//	POST /v1/jobs                submit a job; body is either a JSON
//	                             request ({"bench": ..., "config": ...})
//	                             or a raw .bench netlist (text/plain)
//	GET  /v1/jobs/{id}           job status; with Accept:
//	                             text/event-stream, a live SSE progress
//	                             feed instead
//	GET  /v1/artifacts/{key}     bundle manifest (file names and sizes)
//	GET  /v1/artifacts/{key}/{file}  one artifact file, verbatim
//	GET  /healthz                liveness
//	GET  /metrics                queue/store counters, text format
//
// Errors are structured JSON: {"error": {"code": ..., "message": ...}}.
type Server struct {
	queue *Queue
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
}

// NewServer wraps a queue in an HTTP API.
func NewServer(q *Queue) *Server {
	return &Server{queue: q, MaxBodyBytes: 8 << 20}
}

// Handler returns the API's routing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/artifacts/{key}", s.handleManifest)
	mux.HandleFunc("GET /v1/artifacts/{key}/{file}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// httpError is the structured error payload.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// ConfigDTO is the wire form of the pipeline config: the submittable
// subset of workload.Config (function-valued and expert fields stay
// server-side). Bodies are decoded with unknown fields disallowed, so
// a field not listed here, such as a retired one, gets a 400 rather
// than being silently ignored.
type ConfigDTO struct {
	Seed          int64 `json:"seed,omitempty"`
	T0MaxLen      int   `json:"t0_max_len,omitempty"`
	RandomT0Len   int   `json:"random_t0_len,omitempty"`
	SkipRandom    bool  `json:"skip_random,omitempty"`
	SkipDynamic   bool  `json:"skip_dynamic,omitempty"`
	SkipBaselines bool  `json:"skip_baselines,omitempty"`
	SkipDirected  bool  `json:"skip_directed,omitempty"`
	ScanFFs       int   `json:"scan_ffs,omitempty"`
	Workers       int   `json:"workers,omitempty"`
	Check         bool  `json:"check,omitempty"`
	CheckSample   int   `json:"check_sample,omitempty"`
}

// Config maps the DTO onto the pipeline config.
func (d ConfigDTO) Config() workload.Config {
	return workload.Config{
		Seed:          d.Seed,
		T0MaxLen:      d.T0MaxLen,
		RandomT0Len:   d.RandomT0Len,
		SkipRandom:    d.SkipRandom,
		SkipDynamic:   d.SkipDynamic,
		SkipBaselines: d.SkipBaselines,
		SkipDirected:  d.SkipDirected,
		ScanFFs:       d.ScanFFs,
		Workers:       d.Workers,
		Check:         d.Check,
		CheckSample:   d.CheckSample,
	}
}

// submitDTO is the JSON submission body.
type submitDTO struct {
	Name   string    `json:"name,omitempty"`
	Bench  string    `json:"bench,omitempty"`
	Roster string    `json:"roster,omitempty"`
	Config ConfigDTO `json:"config"`
}

// jobDTO is the job-status response body.
type jobDTO struct {
	ID     string   `json:"id"`
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	State  State    `json:"state"`
	Phases []string `json:"phases,omitempty"`
	Error  string   `json:"error,omitempty"`
}

func jobToDTO(j *Job) jobDTO {
	state, phases, err := j.Snapshot()
	d := jobDTO{ID: j.ID, Name: j.Name, Key: j.Key.String(), State: state, Phases: phases}
	if err != nil {
		d.Error = err.Error()
	}
	return d
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	// The whole body is read before any decoding, so every body over the
	// cap gets 413 whatever its content. A declared length within the cap
	// sizes the buffer once; ReadFrom keeps MinRead bytes free for each
	// read, the one that meets the end included.
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= s.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad_request", "failed to read request body")
		return
	}
	body := buf.Bytes()

	var req Request
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var d submitDTO
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
			return
		}
		// Decode reads one value; anything but whitespace after it is
		// rejected, not ignored.
		if _, err := dec.Token(); err != io.EOF {
			httpError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: data after the request object")
			return
		}
		req = Request{Name: d.Name, Bench: d.Bench, Roster: d.Roster, Config: d.Config.Config()}
	} else {
		// Raw .bench upload; the circuit name comes from ?name=.
		if len(bytes.TrimSpace(body)) == 0 {
			httpError(w, http.StatusBadRequest, "bad_request", "empty netlist body")
			return
		}
		req = Request{Name: r.URL.Query().Get("name"), Bench: string(body)}
	}

	j, err := s.queue.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrParse):
		httpError(w, http.StatusBadRequest, "bad_netlist", err.Error())
		return
	case errors.Is(err, ErrUnsupported):
		httpError(w, http.StatusUnprocessableEntity, "unsupported_circuit", err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusServiceUnavailable, "queue_full", err.Error())
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	state, _, _ := j.Snapshot()
	if state == StateCached {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(jobToDTO(j))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(jobToDTO(j))
}

// streamJob serves a job's progress as server-sent events: one "phase"
// event per pipeline phase, then a terminal "done" event carrying the
// final status JSON.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotAcceptable, "not_streamable", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancel := j.Follow()
	defer cancel()
	for {
		select {
		case phase, ok := <-ch:
			if !ok {
				final, _ := json.Marshal(jobToDTO(j))
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", final)
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: phase\ndata: %s\n\n", phase)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) parseKey(w http.ResponseWriter, r *http.Request) (Key, *Artifacts, bool) {
	key, err := ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_key", err.Error())
		return Key{}, nil, false
	}
	st := s.queue.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, "not_found", "artifact store disabled")
		return Key{}, nil, false
	}
	a, ok, err := st.Get(key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err.Error())
		return Key{}, nil, false
	}
	if !ok {
		httpError(w, http.StatusNotFound, "not_found", "no such artifact bundle")
		return Key{}, nil, false
	}
	return key, a, true
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	key, a, ok := s.parseKey(w, r)
	if !ok {
		return
	}
	names := make([]string, 0, len(a.Files))
	for n := range a.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]map[string]any, 0, len(names))
	for _, n := range names {
		files = append(files, map[string]any{"name": n, "size": len(a.Files[n])})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"key": key.String(), "files": files})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	_, a, ok := s.parseKey(w, r)
	if !ok {
		return
	}
	name := r.PathValue("file")
	data, ok := a.Files[name]
	if !ok {
		httpError(w, http.StatusNotFound, "not_found", "no such file in bundle")
		return
	}
	ct := "text/plain; charset=utf-8"
	if strings.HasSuffix(name, ".json") {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(data)
}

// handleMetrics renders the queue and store counters in a flat
// "name value" text format (one metric per line).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.queue.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "jobs_submitted %d\n", m.Submitted)
	fmt.Fprintf(w, "jobs_computed %d\n", m.Computations)
	fmt.Fprintf(w, "jobs_cache_hits %d\n", m.CacheHits)
	fmt.Fprintf(w, "jobs_deduped %d\n", m.Deduped)
	fmt.Fprintf(w, "jobs_failed %d\n", m.Failures)
	fmt.Fprintf(w, "queue_pending %d\n", m.Pending)
	fmt.Fprintf(w, "queue_running %d\n", m.Running)
	if lookups := m.CacheHits + m.Computations + m.Failures; lookups > 0 {
		fmt.Fprintf(w, "cache_hit_ratio %.4f\n", float64(m.CacheHits)/float64(lookups))
	}
	if st := s.queue.Store(); st != nil {
		ss := st.Stats()
		fmt.Fprintf(w, "store_objects %d\n", ss.Objects)
		fmt.Fprintf(w, "store_bytes %d\n", ss.Bytes)
		fmt.Fprintf(w, "store_evictions %d\n", ss.Evictions)
	}
	phases := make([]string, 0, len(m.PhaseSeconds))
	for p := range m.PhaseSeconds {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(w, "phase_seconds{phase=%q} %.3f\n", p, m.PhaseSeconds[p])
	}
}
