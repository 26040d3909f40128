package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/taint"
)

// serveRate is the serve arrival rate, in requests per second: about
// an eighth of the rate at which the daemon, on the 2-vCPU machine the
// benchmark was written on, stopped keeping up with this mix. Nearer
// saturation, a host slowdown pushed the daemon close to it and the read
// p50 moved by up to 57 % (200/s) and 33 % (100/s) between runs; at
// 50/s the daemon stays far enough from saturation to absorb one.
const serveRate = 50

// lateLimit bounds the generator's own lateness: the tail of the time
// between a request's due time and its hand-off to a sender. A run
// whose generator fell further behind measured the generator, not the
// daemon: its run record marks it invalid.
const lateLimit = 20 * time.Millisecond

// smokeRequests is the length of a --smoke serve schedule.
const smokeRequests = 40

// Request kinds of the serve mix.
const (
	reqDeps = iota
	reqViolations
	reqBatchGet
	reqUpload
)

var routeNames = [...]string{"GET /v1/deps", "GET /v1/violations", "POST /v1/store/batch-get", "POST /v1/components"}

// request is one scheduled arrival.
type request struct {
	due      time.Duration
	kind     int
	scenario string // deps: "" asks for the union
	comp     string // upload target
	n        int    // upload sequence number, unique within the run
}

// schedule draws the run's n arrivals: Poisson arrivals conditioned on
// n of them falling within span, which places them uniformly at random
// over it, so every run offers exactly n/span requests per second. One
// request in every block of 20, at a seeded place, is an upload; the
// reads spread 6:2:2 over deps, violations and batch-get. Uploads visit
// the components round-robin from a seeded start, so every run
// re-analyses the same mix of components.
func schedule(seed uint64, n int, span time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * float64(span)
	}
	sort.Float64s(due)
	scenarios := []string{""}
	for _, s := range corpus.Scenarios() {
		scenarios = append(scenarios, s.Name)
	}
	comps := sortedNames(corpus.Components())
	first := rng.IntN(len(comps))
	reqs := make([]request, n)
	writeAt, uploads := 0, 0
	for i := range reqs {
		if i%20 == 0 {
			writeAt = i + rng.IntN(20)
		}
		r := &reqs[i]
		r.due = time.Duration(due[i])
		switch x := rng.IntN(10); {
		case i == writeAt:
			r.kind, r.comp, r.n = reqUpload, comps[(first+uploads)%len(comps)], uploads
			uploads++
		case x < 6:
			r.kind, r.scenario = reqDeps, scenarios[rng.IntN(len(scenarios))]
		case x < 8:
			r.kind = reqViolations
		default:
			r.kind = reqBatchGet
		}
	}
	return reqs
}

// served is what happened to one request, in times since the run
// started.
type served struct {
	queued, sent, done time.Duration
	err                error
}

// client issues the serve mix against one daemon and checks every
// answer.
type client struct {
	e        *env
	d        *daemon
	hc       *http.Client
	rc       *remote.Client
	sources  map[string]string
	manifest []depstore.Ref
	seed     uint64
	// passed holds the digests of the bodies that passed their check.
	// The daemon answers a read with the same bytes again and again, so
	// a repeat is checked by its digest and the senders spend their CPU
	// on sending.
	passed sync.Map // [sha256.Size]byte → struct{}
}

// checkOnce checks body with check unless the same body passed before.
func (c *client) checkOnce(body []byte, check func([]byte) error) error {
	sum := sha256.Sum256(body)
	if _, ok := c.passed.Load(sum); ok {
		return nil
	}
	if err := check(body); err != nil {
		return err
	}
	c.passed.Store(sum, struct{}{})
	return nil
}

func (c *client) get(path string) ([]byte, error) {
	res, err := c.hc.Get(c.d.url + path)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, res.Status)
	}
	return body, nil
}

// do sends one request and checks its answer.
func (c *client) do(r request) error {
	switch r.kind {
	case reqDeps:
		path := "/v1/deps"
		if r.scenario != "" {
			path += "?scenario=" + r.scenario
		}
		body, err := c.get(path)
		if err != nil {
			return err
		}
		return c.checkOnce(body, func(b []byte) error { return c.e.golden.checkDeps(b, r.scenario) })
	case reqViolations:
		body, err := c.get("/v1/violations")
		if err != nil {
			return err
		}
		return c.checkOnce(body, checkViolations)
	case reqBatchGet:
		got, ok := c.rc.BatchGet(c.manifest)
		if !ok {
			return fmt.Errorf("batch-get failed")
		}
		if len(got) != len(c.manifest) {
			return wrongf("batch-get returned %d of %d manifest records", len(got), len(c.manifest))
		}
		for _, ref := range c.manifest {
			if len(got[ref]) == 0 {
				return wrongf("batch-get returned no payload for %s/%s", ref.Kind, ref.Key)
			}
		}
		return nil
	default:
		return c.upload(r.comp, r.n)
	}
}

// upload replaces a component's source with the original plus a
// comment unique to (seed, n): a real re-analysis whose output must not
// change.
func (c *client) upload(comp string, n int) error {
	src := c.sources[comp] + fmt.Sprintf("\n/* fsdepbench upload seed=%d n=%d */\n", c.seed, n)
	body, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		return err
	}
	res, err := c.hc.Post(c.d.url+"/v1/components/"+comp, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %s: %s: %s", comp, res.Status, strings.TrimSpace(string(b)))
	}
	var up struct {
		Component  string `json:"component"`
		Reanalyzed bool   `json:"reanalyzed"`
	}
	if err := json.Unmarshal(b, &up); err != nil || up.Component != comp || !up.Reanalyzed {
		return wrongf("upload %s answered %s", comp, strings.TrimSpace(string(b)))
	}
	return nil
}

// checkViolations holds /v1/violations to ConHandleCk's finding: the
// planned trials with exactly one silent corruption.
func checkViolations(body []byte) error {
	var v struct {
		Trials            []json.RawMessage `json:"trials"`
		SilentCorruptions int               `json:"silent_corruptions"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return wrongf("decoding violations: %v", err)
	}
	if len(v.Trials) != handleTrials || v.SilentCorruptions != 1 {
		return wrongf("violations: %d trials, %d silent corruptions; want %d and 1",
			len(v.Trials), v.SilentCorruptions, handleTrials)
	}
	return nil
}

// runServe is the serve workload: an open loop against a child fsdepd
// at a fixed rate, from at most nproc senders over at most nproc
// connections.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for k := 0; k < setupReps(e); k++ {
		if d != nil {
			d.stop()
			d = nil
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	sources := map[string]string{}
	for name, c := range corpus.Components() {
		sources[name] = c.Source
	}
	c := &client{
		e: e, d: d, seed: e.seed, sources: sources,
		hc:       &http.Client{Timeout: 30 * time.Second},
		rc:       remote.New(d.url),
		manifest: recordManifest(),
	}
	// Answer each read once before timing, so the first violations
	// request does not pay ConHandleCk's first run.
	for _, r := range []request{{kind: reqViolations}, {kind: reqDeps}, {kind: reqBatchGet}} {
		if err := c.do(r); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", routeNames[r.kind], err)
		}
	}

	n := int(serveRate * e.seconds.Seconds())
	if e.smoke {
		n = smokeRequests
	}
	reqs := schedule(e.seed, n, time.Duration(float64(n)/serveRate*float64(time.Second)))
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.pid)
	if err != nil {
		return nil, err
	}
	out := c.openLoop(reqs)
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(d.pid)
	if err != nil {
		return nil, err
	}
	if o.rssMB, err = peakRSSMB(d.pid); err != nil {
		return nil, err
	}

	var writes, dispatch, queue, traced, untraced []float64
	var last time.Duration
	uploads, batches := 0, 0
	for i, r := range reqs {
		s := out[i]
		dispatch = append(dispatch, ms(s.queued-r.due))
		queue = append(queue, ms(s.sent-r.due))
		lat := s.done - r.due
		if r.kind == reqUpload {
			uploads++
			if o.tally(s.err) {
				writes = append(writes, ms(lat))
			}
		} else {
			if r.kind == reqBatchGet {
				batches++
			}
			o.record(lat, s.err)
			if s.err == nil && e.trace {
				if i%2 == 0 {
					traced = append(traced, ms(lat))
				} else {
					untraced = append(untraced, ms(lat))
				}
			}
		}
		if s.err == nil {
			o.completed++
		}
		last = max(last, s.done)
	}
	o.timed = last
	o.metrics["write_p50_ms"] = median(writes)
	if t, ok := tailOf(writes); ok {
		o.metrics["write_tail_ms"] = t.Value
		o.info["write_tail"] = t
	} else {
		o.info["write_tail"] = "unsupported: fewer than 10 samples beyond p90"
	}
	late := tailOrMax(dispatch)
	o.info["rate_per_s"] = serveRate
	o.info["requests"] = len(reqs)
	o.info["uploads"] = uploads
	o.info["generator_lateness_ms"] = late
	o.info["send_lateness_ms"] = tailOrMax(queue)
	o.info["connections_max"] = maxConns()
	o.info["senders"] = runtime.NumCPU()
	o.info["daemon_cpu_cores"] = ratio((cpu1 - cpu0).Seconds(), last.Seconds())
	o.info["shed"] = st1.Service.Shed - st0.Service.Shed
	if e.trace {
		o.metrics["trace.overhead_ms"] = median(traced) - median(untraced)
		o.info["trace_overhead"] = map[string]any{
			"traced_op_p50_ms": median(traced), "untraced_op_p50_ms": median(untraced),
			"traced_ops": len(traced), "untraced_ops": len(untraced),
		}
		o.metrics["service.queue_ms"] = mean(queue)
		o.metrics["service.shed"] = float64(st1.Service.Shed - st0.Service.Shed)
		n := float64(max(uploads, 1))
		o.metrics["depstore.records_per_op"] = float64(st1.writes()-st0.writes()) / n
		raw := float64(st1.Service.BatchRawBytes - st0.Service.BatchRawBytes)
		o.metrics["wire.bytes"] = raw / float64(max(batches, 1))
		o.metrics["wire.gzip_ratio"] = ratio(raw, float64(st1.Service.BatchWireBytes-st0.Service.BatchWireBytes))
		rs := c.rc.Stats()
		o.metrics["remote.round_trips"] = ratio(float64(rs.RoundTrips), float64(rs.Batches))
		o.metrics["remote.retries"] = float64(rs.Retries)
		if err := c.probeRoutes(o, uploads); err != nil {
			return nil, err
		}
	}
	if n := maxConns(); n > runtime.NumCPU() {
		return nil, fmt.Errorf("the generator held %d connections, more than nproc (%d)", n, runtime.NumCPU())
	}
	o.info["valid"] = late <= ms(lateLimit)
	if late > ms(lateLimit) {
		fmt.Fprintf(os.Stderr, "fsdepbench: invalid serve run: the generator ran %.1f ms late at its tail, limit %v\n", late, lateLimit)
	}
	return o, nil
}

// tailOrMax is the tail percentile of xs, or its maximum when the
// sample is too small for one.
func tailOrMax(xs []float64) float64 {
	if t, ok := tailOf(xs); ok {
		return t.Value
	}
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// recordManifest is the part of the manifest a warm CLI prefetches
// that an intra-procedural run stores: its scenario and taint records.
// Summary tables gain entries, and so records, in inter mode only.
func recordManifest() []depstore.Ref {
	var refs []depstore.Ref
	for _, r := range core.PrefetchRefs(corpus.Components(), corpus.Scenarios(), core.Options{Mode: taint.Intra}) {
		if r.Kind != depstore.KindSummaries {
			refs = append(refs, r)
		}
	}
	return refs
}

// openLoop sends every request at its due time from runtime.NumCPU()
// senders and returns what happened to each. A request that finds all
// senders busy waits in a queue, and that wait counts in its latency.
func (c *client) openLoop(reqs []request) []served {
	out := make([]served, len(reqs))
	// One slot per scheduled request, so the dispatcher never blocks.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				out[i].sent = time.Since(t0)
				var tr *tracer
				if i%2 == 0 {
					tr = c.e.tr
				}
				id := tr.begin(0, i, routeNames[r.kind], false)
				err := c.do(r)
				out[i].done = time.Since(t0)
				tr.end(id)
				out[i].err = err
			}
		}()
	}
	for i, r := range reqs {
		if wait := r.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		out[i].queued = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// probeRoutes times each route from one client on the otherwise idle
// daemon, as shadow calls, and the analysis layers an upload runs.
func (c *client) probeRoutes(o *outcome, firstUpload int) error {
	e, tr := c.e, c.e.tr
	reps := 10
	if e.smoke {
		reps = 2
	}
	base := corpus.Components()
	if _, err := core.AnalyzeAll(base, corpus.Scenarios(), core.Options{Mode: taint.Intra}, e.sopts); err != nil {
		return err
	}
	hdr := map[string]string{"Content-Type": "application/json", "Accept-Encoding": "gzip"}
	manifest, err := json.Marshal(map[string]any{"refs": c.manifest})
	if err != nil {
		return err
	}
	for k := 0; k < reps; k++ {
		op := -2 - k
		sh := tr.begin(0, op, "shadow", true)
		var err error
		step := func(metric, name string, fn func() error) {
			if err == nil {
				d := tr.call(sh, op, name, true, func() { err = fn() })
				o.sample(metric, ms(d))
			}
		}
		step("service.deps_ms", "GET /v1/deps", func() error { return c.do(request{kind: reqDeps}) })
		step("service.violations_ms", "GET /v1/violations", func() error { return c.do(request{kind: reqViolations}) })
		step("service.batch_get_ms", "POST /v1/store/batch-get", func() error { return c.post("/v1/store/batch-get", manifest, hdr) })
		step("remote.batch_get_ms", "remote.BatchGet", func() error { return c.do(request{kind: reqBatchGet}) })
		comp := sortedNames(base)[k%len(base)]
		n := firstUpload + k
		step("service.upload_ms", "POST /v1/components", func() error { return c.upload(comp, n) })
		step("service.violations_regen_ms", "GET /v1/violations (after upload)", func() error {
			return c.do(request{kind: reqViolations})
		})
		if err == nil {
			// The analysis layers the upload ran, re-done here: the new
			// source alone through the frontend, then the corpus with
			// that one component replaced.
			src := c.sources[comp] + fmt.Sprintf("\n/* fsdepbench upload seed=%d n=%d */\n", c.seed, n)
			up := &core.Component{Name: comp, Source: src, Params: base[comp].Params}
			err = probeFrontend(o, tr, sh, op, map[string]*core.Component{comp: {Name: comp, Source: src}})
			if err == nil {
				base[comp] = up
				var runs uint64
				runs, err = probeAnalysis(e, o, tr, sh, op, base)
				o.sample("taint.engine_runs", float64(runs))
			}
		}
		tr.end(sh)
		if err != nil {
			return fmt.Errorf("unloaded route probe: %w", err)
		}
	}
	return nil
}

// post sends body to path and drains the answer.
func (c *client) post(path string, body []byte, hdr map[string]string) error {
	req, err := http.NewRequest(http.MethodPost, c.d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, res.Status)
	}
	return nil
}
