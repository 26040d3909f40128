// HTTP/JSON surface over an Analysis plus the raw record-store tier
// remote clients fall through to. Endpoints (all under /v1):
//
//	GET  /v1/ping                    liveness probe
//	GET  /v1/scenarios               scenario list
//	GET  /v1/deps[?scenario=NAME]    extracted dependencies (union or one scenario)
//	GET  /v1/degradations            fail-open run: quarantines + unresolved CCD edges
//	GET  /v1/violations              ConHandleCk verdicts over the current extraction
//	POST /v1/run                     trigger a full ({"degraded":false}) or degraded run
//	POST /v1/components/{name}       upload/replace a component's source → incremental re-run
//	GET  /v1/stats                   engine + store counters
//	POST /v1/scrub                   re-validate every store record, drop/quarantine bad ones
//	POST /v1/store/batch-get         remote tier read: JSON ref manifest → framed record stream
//	POST /v1/store/batch-put         remote tier write: framed record stream
//
// The two store endpoints are the whole remote tier: every record, one
// or many, crosses in internal/depstore/wire's framed stream —
// per-frame checksums, validated end-to-end before a single record is
// admitted — with gzip transport compression negotiated via the
// standard Accept-Encoding/Content-Encoding headers.
//
// Load shedding: Handler bounds concurrently served requests (default
// defaultMaxInFlight, tune with SetMaxInFlight); excess requests are
// answered 503 with Retry-After: 1 instead of queueing, so an
// overloaded daemon degrades to "retry later" — which the remote
// client's backoff honors — rather than to unbounded latency.

package service

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/wire"
)

// maxUpload bounds JSON request bodies (component sources, ref
// manifests).
const maxUpload = 64 << 20

// maxBatchBytes bounds a decompressed batch stream's cumulative
// payload, so a compressed bomb cannot balloon in memory past what the
// store could plausibly hold.
const maxBatchBytes = 1 << 30

// defaultMaxInFlight bounds concurrently served requests when
// SetMaxInFlight was not called.
const defaultMaxInFlight = 64

// ScoreFunc partitions dependencies into true/false positives against
// an ecosystem's ground truth (corpus.Score for Ext4). Nil disables
// scoring in responses.
type ScoreFunc func([]depmodel.Dependency) (tp, fp []depmodel.Dependency)

// Server is the HTTP surface. Construct with NewServer and mount
// Handler on an http.Server.
type Server struct {
	a           *Analysis
	store       *depstore.Store
	score       ScoreFunc
	ecosystem   string
	start       time.Time
	maxInFlight int
	chaos       *Chaos

	shed      atomic.Uint64
	scrubMu   sync.Mutex
	lastScrub *depstore.ScrubReport

	// Bulk-protocol counters, surfaced in /v1/stats' service section.
	batchGets      atomic.Uint64
	batchPuts      atomic.Uint64
	batchRecords   atomic.Uint64
	batchRawBytes  atomic.Uint64 // framed stream bytes before compression
	batchWireBytes atomic.Uint64 // bytes actually on the wire
}

// NewServer wires the analysis, the record store served to remote
// clients (may be nil: store endpoints answer 503), the ground-truth
// scorer (may be nil), and the ecosystem label used in responses.
func NewServer(a *Analysis, store *depstore.Store, score ScoreFunc, ecosystem string) *Server {
	return &Server{
		a: a, store: store, score: score, ecosystem: ecosystem,
		start: time.Now(), maxInFlight: defaultMaxInFlight,
	}
}

// SetMaxInFlight bounds concurrently served requests (≤0 restores the
// default). Call before Handler.
func (s *Server) SetMaxInFlight(n int) {
	if n <= 0 {
		n = defaultMaxInFlight
	}
	s.maxInFlight = n
}

// SetChaos installs a wire-fault plan around the route table (nil
// disables — the production state; fsdepd never sets one). Call before
// Handler.
func (s *Server) SetChaos(c *Chaos) { s.chaos = c }

// Handler returns the route table wrapped in the in-flight limiter
// (outermost, so shedding costs no handler work) and, when configured,
// the chaos middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", s.handlePing)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/deps", s.handleDeps)
	mux.HandleFunc("GET /v1/degradations", s.handleDegradations)
	mux.HandleFunc("GET /v1/violations", s.handleViolations)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/components/{name}", s.handleUpload)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/scrub", s.handleScrub)
	mux.HandleFunc("POST /v1/store/batch-get", s.handleBatchGet)
	mux.HandleFunc("POST /v1/store/batch-put", s.handleBatchPut)
	var h http.Handler = mux
	if s.chaos != nil {
		h = s.chaos.Wrap(h)
	}
	return s.limit(h)
}

// limit sheds load beyond maxInFlight with 503 + Retry-After instead
// of queueing: a saturated daemon stays responsive about being
// saturated, and the remote client's backoff turns the answer into a
// bounded wait.
func (s *Server) limit(next http.Handler) http.Handler {
	sem := make(chan struct{}, s.maxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "overloaded: in-flight request limit reached"})
		}
	})
}

// writeJSON renders one response; encoding errors at this point can
// only be delivered as a broken body, so they are swallowed.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorJSON maps service errors onto status codes: client mistakes
// (unknown names, bad sources) are 4xx, analysis failures are 500.
func errorJSON(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownComponent), errors.Is(err, ErrUnknownScenario):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadSource):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handlePing(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "ecosystem": s.ecosystem})
}

type scenarioInfo struct {
	Name       string   `json:"name"`
	Components []string `json:"components"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	var out []scenarioInfo
	for _, sc := range s.a.Scenarios() {
		out = append(out, scenarioInfo{Name: sc.Name, Components: sc.Components})
	}
	writeJSON(w, http.StatusOK, map[string]any{"ecosystem": s.ecosystem, "scenarios": out})
}

// depsResponse is one extraction answer. Dependencies are sorted the
// way the CLI's -json document sorts them, so a scripted diff against
// a local run compares equal structures.
type depsResponse struct {
	Ecosystem string `json:"ecosystem"`
	Scenario  string `json:"scenario"`
	Extracted int    `json:"extracted"`
	SD        int    `json:"sd"`
	CPD       int    `json:"cpd"`
	CCD       int    `json:"ccd"`
	// TruePositives/FalsePositives are present when the server has a
	// ground-truth scorer.
	TruePositives  *int                  `json:"true_positives,omitempty"`
	FalsePositives *int                  `json:"false_positives,omitempty"`
	Dependencies   []depmodel.Dependency `json:"dependencies"`
}

func (s *Server) depsResponseFor(scenario string, set *depmodel.Set) depsResponse {
	cnt := set.CountByCategory()
	resp := depsResponse{
		Ecosystem: s.ecosystem,
		Scenario:  scenario,
		Extracted: set.Len(),
		SD:        cnt[depmodel.SD],
		CPD:       cnt[depmodel.CPD],
		CCD:       cnt[depmodel.CCD],
		// Marshal [] rather than null for an empty extraction.
		Dependencies: set.Sorted(),
	}
	if resp.Dependencies == nil {
		resp.Dependencies = []depmodel.Dependency{}
	}
	if s.score != nil {
		tp, fp := s.score(set.Deps())
		ntp, nfp := len(tp), len(fp)
		resp.TruePositives, resp.FalsePositives = &ntp, &nfp
	}
	return resp
}

func (s *Server) handleDeps(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("scenario")
	if name == "" {
		union, err := s.a.Union()
		if err != nil {
			errorJSON(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.depsResponseFor("all-scenarios", union))
		return
	}
	res, err := s.a.Scenario(name)
	if err != nil {
		errorJSON(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.depsResponseFor(name, res.Deps))
}

type degradationsResponse struct {
	Degradations  []string            `json:"degradations"`
	UnresolvedCCD map[string][]string `json:"unresolved_ccd"`
	Scenarios     []scenarioSummary   `json:"scenarios"`
}

type scenarioSummary struct {
	Name        string   `json:"name"`
	Extracted   int      `json:"extracted"`
	Quarantined []string `json:"quarantined,omitempty"`
}

func (s *Server) handleDegradations(w http.ResponseWriter, _ *http.Request) {
	run, err := s.a.Degraded()
	if err != nil {
		errorJSON(w, err)
		return
	}
	resp := degradationsResponse{
		Degradations:  []string{},
		UnresolvedCCD: map[string][]string{},
	}
	for _, d := range run.Degradations {
		resp.Degradations = append(resp.Degradations, d.String())
	}
	for _, res := range run.Results {
		sum := scenarioSummary{Name: res.Scenario.Name, Extracted: res.Deps.Len()}
		for _, q := range res.Quarantined {
			sum.Quarantined = append(sum.Quarantined, q.Component)
		}
		for _, e := range res.UnresolvedCCD {
			key := e.Component + "." + e.Canon
			resp.UnresolvedCCD[key] = append(resp.UnresolvedCCD[key], e.Quarantined)
		}
		resp.Scenarios = append(resp.Scenarios, sum)
	}
	writeJSON(w, http.StatusOK, resp)
}

type trialJSON struct {
	DepKey  string `json:"dep_key"`
	Desc    string `json:"desc"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail"`
}

type violationsResponse struct {
	Trials            []trialJSON `json:"trials"`
	Rejected          int         `json:"rejected"`
	Benign            int         `json:"benign"`
	SilentCorruptions int         `json:"silent_corruptions"`
}

func (s *Server) handleViolations(w http.ResponseWriter, _ *http.Request) {
	rep, err := s.a.Violations()
	if err != nil {
		errorJSON(w, err)
		return
	}
	resp := violationsResponse{
		Trials:            []trialJSON{},
		Rejected:          rep.Counts[conhandleck.Rejected],
		Benign:            rep.Counts[conhandleck.Benign],
		SilentCorruptions: rep.Counts[conhandleck.SilentCorruption],
	}
	for _, t := range rep.Trials {
		resp.Trials = append(resp.Trials, trialJSON{
			DepKey: t.DepKey, Desc: t.Desc, Outcome: t.Outcome.String(), Detail: t.Detail,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type runRequest struct {
	Degraded bool `json:"degraded"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(r, &req); err != nil {
		errorJSON(w, fmt.Errorf("%w: %v", ErrBadSource, err))
		return
	}
	if req.Degraded {
		run, err := s.a.Degraded()
		if err != nil {
			errorJSON(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"mode": "degraded", "scenarios": len(run.Results),
			"extracted": core.Union(run.Results).Len(), "quarantined": len(run.Degradations),
		})
		return
	}
	union, err := s.a.Union()
	if err != nil {
		errorJSON(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode": "strict", "scenarios": len(s.a.Scenarios()), "extracted": union.Len(),
	})
}

// paramJSON mirrors core.Param for the upload body.
type paramJSON struct {
	Name  string `json:"name"`
	Var   string `json:"var"`
	Func  string `json:"func,omitempty"`
	CType string `json:"ctype,omitempty"`
	Doc   string `json:"doc,omitempty"`
}

type uploadRequest struct {
	Source string `json:"source"`
	// Params nil keeps the component's current parameter list.
	Params []paramJSON `json:"params"`
}

type uploadResponse struct {
	Component      string   `json:"component"`
	Dependents     []string `json:"dependents"`
	StaleScenarios []string `json:"stale_scenarios"`
	Reanalyzed     bool     `json:"reanalyzed"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req uploadRequest
	if err := decodeBody(r, &req); err != nil {
		errorJSON(w, fmt.Errorf("%w: %v", ErrBadSource, err))
		return
	}
	var params []core.Param
	if req.Params != nil {
		params = make([]core.Param, 0, len(req.Params))
		for _, p := range req.Params {
			params = append(params, core.Param{Name: p.Name, Var: p.Var, Func: p.Func, CType: p.CType, Doc: p.Doc})
		}
	}
	inv, err := s.a.Upload(name, req.Source, params)
	if err != nil {
		errorJSON(w, err)
		return
	}
	resp := uploadResponse{
		Component:      inv.Component,
		Dependents:     inv.Dependents,
		StaleScenarios: inv.StaleScenarios,
		Reanalyzed:     true,
	}
	if resp.Dependents == nil {
		resp.Dependents = []string{}
	}
	if resp.StaleScenarios == nil {
		resp.StaleScenarios = []string{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleScrub re-validates every record in the daemon's store,
// removing (or, with {"quarantine":true}, preserving under
// quarantine/) the ones that fail, and answers with the report. The
// report also surfaces in /v1/stats until the next scrub.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no store attached"})
		return
	}
	var req struct {
		Quarantine bool `json:"quarantine"`
	}
	if err := decodeBody(r, &req); err != nil {
		errorJSON(w, fmt.Errorf("%w: %v", ErrBadSource, err))
		return
	}
	rep, err := s.store.Scrub(depstore.ScrubOptions{Quarantine: req.Quarantine})
	if err != nil {
		errorJSON(w, err)
		return
	}
	s.scrubMu.Lock()
	s.lastScrub = &rep
	s.scrubMu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// statsResponse flattens the layered counters; the CI smoke step greps
// these keys, so their names are load-bearing (new keys are fine,
// renames are not).
type statsResponse struct {
	Ecosystem     string `json:"ecosystem"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Generation    uint64 `json:"generation"`
	Ran           bool   `json:"ran"`
	Taint         struct {
		Hits       uint64 `json:"hits"`
		Misses     uint64 `json:"misses"`
		DiskHits   uint64 `json:"disk_hits"`
		DiskMisses uint64 `json:"disk_misses"`
		EngineRuns uint64 `json:"engine_runs"`
	} `json:"taint"`
	Store *struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
		Writes        uint64 `json:"writes"`
		Evictions     uint64 `json:"evictions"`
		WriteBackErrs uint64 `json:"write_back_errors"`
	} `json:"store,omitempty"`
	Service struct {
		InFlightLimit int    `json:"in_flight_limit"`
		Shed          uint64 `json:"shed"`
		// Bulk store protocol counters: completed bulk transfers, the
		// records they carried, and the framed bytes before/after
		// transport compression.
		BatchGets      uint64 `json:"batch_gets"`
		BatchPuts      uint64 `json:"batch_puts"`
		BatchRecords   uint64 `json:"batch_records"`
		BatchRawBytes  uint64 `json:"batch_raw_bytes"`
		BatchWireBytes uint64 `json:"batch_wire_bytes"`
	} `json:"service"`
	Scrub *depstore.ScrubReport `json:"scrub,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.a.StatsSnapshot()
	resp := statsResponse{
		Ecosystem:     s.ecosystem,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Generation:    st.Generation,
		Ran:           st.Ran,
	}
	resp.Taint.Hits = st.Taint.Hits
	resp.Taint.Misses = st.Taint.Misses
	resp.Taint.DiskHits = st.Taint.DiskHits
	resp.Taint.DiskMisses = st.Taint.DiskMisses
	resp.Taint.EngineRuns = st.Taint.EngineRuns
	if st.HasStore {
		resp.Store = &struct {
			Hits          uint64 `json:"hits"`
			Misses        uint64 `json:"misses"`
			Invalidations uint64 `json:"invalidations"`
			Writes        uint64 `json:"writes"`
			Evictions     uint64 `json:"evictions"`
			WriteBackErrs uint64 `json:"write_back_errors"`
		}{
			Hits:          st.Store.Hits,
			Misses:        st.Store.Misses,
			Invalidations: st.Store.Invalidations,
			Writes:        st.Store.Writes,
			Evictions:     st.Store.Evictions,
			WriteBackErrs: st.Store.WriteBackErrors,
		}
	}
	resp.Service.InFlightLimit = s.maxInFlight
	resp.Service.Shed = s.shed.Load()
	resp.Service.BatchGets = s.batchGets.Load()
	resp.Service.BatchPuts = s.batchPuts.Load()
	resp.Service.BatchRecords = s.batchRecords.Load()
	resp.Service.BatchRawBytes = s.batchRawBytes.Load()
	resp.Service.BatchWireBytes = s.batchWireBytes.Load()
	s.scrubMu.Lock()
	resp.Scrub = s.lastScrub
	s.scrubMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// validRecordRef rejects anything that could escape the store
// directory or collide with its framing: kinds are short lowercase
// words, keys are hex content addresses.
func validRecordRef(kind, key string) bool {
	if len(kind) == 0 || len(kind) > 32 || len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(kind); i++ {
		c := kind[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// batchManifest is the batch-get request body: the refs the client
// wants in one round trip.
type batchManifest struct {
	Refs []struct {
		Kind string `json:"kind"`
		Key  string `json:"key"`
	} `json:"refs"`
}

// countingWriter counts bytes written through it (the wire side of the
// raw-vs-compressed stats).
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// acceptsGzip reports whether the request negotiates gzip response
// compression.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := strings.TrimSpace(part)
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc = strings.TrimSpace(enc[:i])
		}
		if enc == "gzip" {
			return true
		}
	}
	return false
}

// handleBatchGet answers a ref manifest with one framed record stream:
// every requested ref appears exactly once, as a payload frame or an
// explicit miss, so the client needs no follow-up round trips to
// distinguish "absent" from "not answered". The response is
// gzip-compressed when the client negotiates it.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no store attached"})
		return
	}
	var manifest batchManifest
	if err := decodeBody(r, &manifest); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(manifest.Refs) > wire.MaxRecords {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("manifest exceeds %d refs", wire.MaxRecords)})
		return
	}
	for _, ref := range manifest.Refs {
		if !validRecordRef(ref.Kind, ref.Key) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed record reference"})
			return
		}
	}
	recs := make([]wire.Record, len(manifest.Refs))
	served := 0
	for i, ref := range manifest.Refs {
		recs[i] = wire.Record{Kind: ref.Kind, Key: ref.Key}
		if payload, ok := s.store.Get(ref.Kind, ref.Key); ok {
			recs[i].Payload = payload
			served++
		} else {
			recs[i].Missing = true
		}
	}
	s.batchGets.Add(1)
	s.batchRecords.Add(uint64(served))
	w.Header().Set("Content-Type", "application/octet-stream")
	wireCount := &countingWriter{w: w}
	out := io.Writer(wireCount)
	var gz *gzip.Writer
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		gz = gzip.NewWriter(wireCount)
		out = gz
	}
	w.WriteHeader(http.StatusOK)
	rawCount := &countingWriter{w: out}
	// Write errors past this point mean the client went away or the
	// stream tore mid-flight; the framing's trailer and checksums make
	// the client refuse the partial stream, so there is nothing useful
	// to do here but stop.
	if err := wire.Write(rawCount, recs); err == nil && gz != nil {
		_ = gz.Close()
	}
	s.batchRawBytes.Add(uint64(rawCount.n))
	s.batchWireBytes.Add(uint64(wireCount.n))
}

// handleBatchPut ingests one framed record stream. The whole stream is
// parsed and validated — framing, per-frame checksums, record
// references — before the first record is stored, so a truncated or
// corrupted upload admits nothing.
func (s *Server) handleBatchPut(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no store attached"})
		return
	}
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	wireCount := &countingReader{r: body}
	stream := io.Reader(wireCount)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(stream)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed gzip body"})
			return
		}
		defer gz.Close()
		stream = gz
	}
	rawCount := &countingReader{r: stream}
	recs, err := wire.ReadAll(rawCount, maxBatchBytes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	for _, rec := range recs {
		if rec.Missing || !validRecordRef(rec.Kind, rec.Key) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed record in batch"})
			return
		}
	}
	for _, rec := range recs {
		if err := s.store.Put(rec.Kind, rec.Key, rec.Payload); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	s.batchPuts.Add(1)
	s.batchRecords.Add(uint64(len(recs)))
	s.batchRawBytes.Add(uint64(rawCount.n))
	s.batchWireBytes.Add(uint64(wireCount.n))
	w.WriteHeader(http.StatusNoContent)
}

// countingReader counts bytes read through it (the ingest side of the
// raw-vs-compressed stats).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// decodeBody parses an optional JSON body; an empty body decodes to
// the zero request.
func decodeBody(r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxUpload))
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	return json.Unmarshal(body, v)
}
