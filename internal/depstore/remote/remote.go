// Package remote is the HTTP client for a depstore record tier served
// by a running fsdepd (internal/service). It implements
// depstore.Remote, so a CLI's local store falls through to the
// daemon's warm store on miss and pushes fresh records back on Put —
// the local-store-with-remote-registry shape that lets a fleet share
// one extraction corpus.
//
// Every record crosses in internal/depstore/wire's framed stream:
// POST /v1/store/batch-get sends a JSON ref manifest and reads back one
// frame per ref, a payload or an explicit miss, and
// POST /v1/store/batch-put uploads records the same way. Each frame
// carries a checksum and the stream a trailer, and the whole stream is
// validated before any record is admitted, so a truncating or
// byte-mangling proxy degrades to a miss, never a wrong answer. gzip
// transport compression is negotiated with the standard headers.
//
// # Recovery model
//
// A remote tier must never make a CLI slower than running cold when
// the daemon is gone, and it must never stay cold once the daemon is
// back. The client therefore layers three mechanisms:
//
//   - per-attempt context deadlines (Config.RequestTimeout), so one
//     hung connection costs a bounded slice of the run, not 30s;
//   - bounded retries with deterministic exponential backoff plus
//     seeded jitter for transient failures (transport errors, 5xx,
//     and 503 load-shed answers, whose Retry-After is honored);
//   - a three-state circuit breaker: Threshold consecutive failures
//     open it (everything short-circuits to miss), a Cooldown later it
//     half-opens and lets exactly one probe through, and a successful
//     probe re-closes it — the daemon coming back heals the client
//     without a restart.
//
// All timing flows through an injectable Clock, so the chaos tests
// replay every retry, cooldown, and probe without a single wall-clock
// sleep.
package remote

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/prng"
)

// ErrUnavailable reports a request the breaker short-circuited: the
// daemon has been failing and the cooldown has not elapsed. It is the
// "clean typed error" a wedged daemon produces — never a hang, never a
// partial answer.
var ErrUnavailable = errors.New("remote: daemon unavailable (circuit open)")

// maxBatchBytes bounds a bulk response body (the compressed stream as
// read off the wire); matches the server's decompressed batch bound.
const maxBatchBytes = 1 << 30

// Clock abstracts time for the retry and breaker machinery. The chaos
// tests substitute a fake that advances instantly, so no test ever
// wall-blocks on a backoff or cooldown.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// wallClock is the production Clock.
type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// Config tunes the client's recovery machinery. Zero fields take the
// defaults noted on each.
type Config struct {
	// RequestTimeout bounds each individual attempt (default 5s).
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried before
	// the request gives up (default 2, so at most 3 attempts).
	MaxRetries int
	// BackoffBase seeds the exponential backoff between attempts:
	// attempt k waits base<<k, half fixed and half jitter (default
	// 50ms).
	BackoffBase time.Duration
	// BackoffMax caps any single backoff, including a server-requested
	// Retry-After (default 2s).
	BackoffMax time.Duration
	// Threshold is how many consecutive failed requests open the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker waits before half-opening
	// for a probe (default 3s).
	Cooldown time.Duration
	// Seed drives the backoff jitter; each request derives its own
	// prng.Derive sub-stream, so a single-threaded run replays exactly
	// (0 = prng.DefaultSeed).
	Seed uint64
	// Clock substitutes the time source (nil = wall clock).
	Clock Clock
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * time.Second
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	return c
}

// breaker states.
type breakerState uint8

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// String names the state the way -stats prints it.
func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "state(?)"
	}
}

// Stats is a snapshot of the client's recovery counters, surfaced by
// every CLI's -stats flag.
type Stats struct {
	// State is "closed", "open", or "half-open".
	State string
	// Retries counts retry attempts (beyond each request's first).
	Retries uint64
	// Failures counts failed attempts, including failed retries.
	Failures uint64
	// Opens counts closed→open trips.
	Opens uint64
	// Probes counts half-open probe attempts.
	Probes uint64
	// Recloses counts half-open→closed recoveries.
	Recloses uint64
	// ShortCircuits counts requests answered locally because the
	// breaker was open.
	ShortCircuits uint64
	// Requests counts logical store requests (Ping and batch calls).
	Requests uint64
	// RoundTrips counts actual HTTP exchanges, retries included — the
	// number the batch protocol exists to shrink.
	RoundTrips uint64
	// Batches counts completed bulk transfers (batch-get and
	// batch-put); BatchRecords counts the records they carried.
	Batches      uint64
	BatchRecords uint64
	// RawBytes and WireBytes count the bulk transfers' framed stream
	// size before and after transport compression; their ratio is the
	// gzip win the -stats line reports.
	RawBytes  uint64
	WireBytes uint64
}

// Client is an HTTP depstore.Remote against a running fsdepd: a
// recovering client per the package's recovery model. Safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
	cfg  Config

	mu        sync.Mutex
	state     breakerState
	fails     int       // consecutive failed requests while closed
	openUntil time.Time // when an open breaker may half-open
	probing   bool      // a half-open probe is in flight

	reqs          atomic.Uint64 // request counter, salts the jitter stream
	retries       atomic.Uint64
	failures      atomic.Uint64
	opens         atomic.Uint64
	probes        atomic.Uint64
	recloses      atomic.Uint64
	shortCircuits atomic.Uint64
	roundTrips    atomic.Uint64
	batches       atomic.Uint64
	batchRecords  atomic.Uint64
	rawBytes      atomic.Uint64
	wireBytes     atomic.Uint64
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7070") with default recovery settings. The URL is
// validated by Ping, not here.
func New(baseURL string) *Client {
	return NewWithConfig(baseURL, Config{})
}

// NewWithConfig returns a client with explicit recovery settings.
func NewWithConfig(baseURL string, cfg Config) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		// No global client timeout: each attempt carries its own context
		// deadline, so a slow request can be retried promptly instead of
		// wedging the whole call for one long timeout.
		hc:  &http.Client{},
		cfg: cfg.withDefaults(),
	}
}

// Base returns the daemon base URL the client was built with.
func (c *Client) Base() string { return c.base }

// Stats returns a snapshot of the recovery counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()
	return Stats{
		State:         state.String(),
		Retries:       c.retries.Load(),
		Failures:      c.failures.Load(),
		Opens:         c.opens.Load(),
		Probes:        c.probes.Load(),
		Recloses:      c.recloses.Load(),
		ShortCircuits: c.shortCircuits.Load(),
		Requests:      c.reqs.Load(),
		RoundTrips:    c.roundTrips.Load(),
		Batches:       c.batches.Load(),
		BatchRecords:  c.batchRecords.Load(),
		RawBytes:      c.rawBytes.Load(),
		WireBytes:     c.wireBytes.Load(),
	}
}

// tripped reports whether the breaker is not closed (kept for tests
// and callers that only need a boolean health signal).
func (c *Client) tripped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state != stateClosed
}

// admit decides whether a request may talk to the daemon. When the
// breaker is open past its cooldown the request is admitted as the
// half-open probe; while a probe is in flight every other request
// short-circuits, so a dead daemon costs the fleet one probe per
// cooldown, not a thundering herd.
func (c *Client) admit() (probe, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case stateClosed:
		return false, true
	case stateOpen:
		if c.cfg.Clock.Now().Before(c.openUntil) {
			c.shortCircuits.Add(1)
			return false, false
		}
		c.state = stateHalfOpen
		c.probing = true
		c.probes.Add(1)
		return true, true
	default: // stateHalfOpen
		if c.probing {
			c.shortCircuits.Add(1)
			return false, false
		}
		c.probing = true
		c.probes.Add(1)
		return true, true
	}
}

// settle records a request's outcome in the breaker.
func (c *Client) settle(probe, success bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
	}
	if success {
		c.fails = 0
		if c.state != stateClosed {
			c.state = stateClosed
			c.recloses.Add(1)
		}
		return
	}
	if c.state == stateHalfOpen {
		// Failed probe: back to open for another cooldown.
		c.state = stateOpen
		c.openUntil = c.cfg.Clock.Now().Add(c.cfg.Cooldown)
		return
	}
	c.fails++
	if c.fails >= c.cfg.Threshold {
		c.state = stateOpen
		c.openUntil = c.cfg.Clock.Now().Add(c.cfg.Cooldown)
		c.opens.Add(1)
	}
}

// httpResult is one completed HTTP exchange: status, headers, and the
// fully read body. Bodies are slurped inside the attempt — while the
// attempt's context deadline is still alive — because reading them
// after do returns would race the context cancellation and tear large
// responses mid-stream.
type httpResult struct {
	status int
	header http.Header
	body   []byte
}

// attemptOutcome classifies one HTTP attempt.
type attemptOutcome struct {
	res        *httpResult // nil on transport failure
	err        error
	retryable  bool
	retryAfter time.Duration // server-requested wait (503 Retry-After)
}

// doAttempt runs one bounded-deadline attempt of req (rebuilt per
// attempt, since a Body can only be read once). hdr entries are set on
// top of the defaults, so a batch call can carry its content type and
// compression negotiation. maxBody bounds the response slurp; a body
// that exceeds it fails the attempt.
func (c *Client) doAttempt(method, url string, payload []byte, hdr map[string]string, maxBody int64) attemptOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return attemptOutcome{err: err} // malformed URL: not retryable
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	c.roundTrips.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return attemptOutcome{err: err, retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		out := attemptOutcome{
			err:       fmt.Errorf("remote: %s: %s", url, resp.Status),
			retryable: true,
		}
		if ra, rerr := strconv.Atoi(resp.Header.Get("Retry-After")); rerr == nil && ra > 0 {
			out.retryAfter = time.Duration(ra) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		return out
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		// The exchange started but the body tore: same class as a
		// transport failure, worth a retry.
		return attemptOutcome{err: err, retryable: true}
	}
	if int64(len(data)) > maxBody {
		return attemptOutcome{err: fmt.Errorf("remote: %s: response exceeds %d bytes", url, maxBody)}
	}
	return attemptOutcome{res: &httpResult{status: resp.StatusCode, header: resp.Header, body: data}}
}

// backoff returns the wait before retry attempt k (0-based), half
// deterministic exponential and half jitter drawn from rng, honoring
// (and capping) a server-requested Retry-After.
func (c *Client) backoff(k int, retryAfter time.Duration, rng *prng.Source) time.Duration {
	d := c.cfg.BackoffBase << uint(k)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(rng.Uint64n(uint64(half)+1))
}

// do runs one logical request with breaker admission and bounded
// retries. A half-open probe gets a single attempt: the point of
// half-open is to sample the daemon's health, not to hammer it. The
// returned result carries the fully read body.
func (c *Client) do(method, url string, payload []byte, hdr map[string]string, maxBody int64) (*httpResult, error) {
	probe, ok := c.admit()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, c.base)
	}
	attempts := 1 + c.cfg.MaxRetries
	if probe {
		attempts = 1
	}
	rng := prng.New(prng.Derive(c.cfg.Seed, c.reqs.Add(1)))
	var lastErr error
	for k := 0; k < attempts; k++ {
		if k > 0 {
			c.retries.Add(1)
		}
		out := c.doAttempt(method, url, payload, hdr, maxBody)
		if out.err == nil {
			c.settle(probe, true)
			return out.res, nil
		}
		c.failures.Add(1)
		lastErr = out.err
		if !out.retryable || k == attempts-1 {
			break
		}
		c.cfg.Clock.Sleep(c.backoff(k, out.retryAfter, rng))
	}
	c.settle(probe, false)
	return nil, lastErr
}

// Ping verifies the daemon is reachable and speaks the store protocol.
// It participates in the breaker like any other request, so a
// successful ping re-closes a tripped client.
func (c *Client) Ping() error {
	if _, err := url.ParseRequestURI(c.base); err != nil {
		return fmt.Errorf("remote: invalid store URL %q: %w", c.base, err)
	}
	res, err := c.do(http.MethodGet, c.base+"/v1/ping", nil, nil, 4096)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("remote: %s/v1/ping: HTTP %d", c.base, res.status)
	}
	return nil
}

// batchManifest is the JSON body of a batch-get request: the refs the
// client wants, in one round trip.
type batchManifest struct {
	Refs []batchRef `json:"refs"`
}

type batchRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

// countingReader counts the bytes that pass through it, so the client
// can report raw vs on-the-wire sizes for the compression win.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// BatchGet fetches many refs in one round trip via POST
// /v1/store/batch-get, negotiating gzip transport compression. It
// returns ok=false — with zero records — whenever the batch answer
// cannot be fully trusted: a non-200 answer, breaker open, transport
// failure, or a truncated/corrupted stream. The caller treats that as
// a miss; a damaged batch can never poison a store.
func (c *Client) BatchGet(refs []depstore.Ref) (map[depstore.Ref][]byte, bool) {
	if len(refs) == 0 {
		return map[depstore.Ref][]byte{}, true
	}
	manifest := batchManifest{Refs: make([]batchRef, len(refs))}
	for i, ref := range refs {
		manifest.Refs[i] = batchRef{Kind: ref.Kind, Key: ref.Key}
	}
	body, err := json.Marshal(&manifest)
	if err != nil {
		return nil, false
	}
	// Setting Accept-Encoding by hand disables net/http's transparent
	// decompression, so the response body is the actual wire bytes —
	// countable — and the gzip layer is ours to unwrap.
	res, err := c.do(http.MethodPost, c.base+"/v1/store/batch-get", body, map[string]string{
		"Content-Type":    "application/json",
		"Accept-Encoding": "gzip",
	}, maxBatchBytes)
	if err != nil || res.status != http.StatusOK {
		return nil, false
	}
	stream := io.Reader(bytes.NewReader(res.body))
	if res.header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(stream)
		if err != nil {
			return nil, false
		}
		defer gz.Close()
		stream = gz
	}
	rawCount := &countingReader{r: stream}
	recs, err := wire.ReadAll(rawCount, 0)
	if err != nil {
		// Truncated or corrupted stream: admit nothing. The HTTP
		// exchange itself succeeded, so the breaker stays settled — this
		// is a payload defect, not daemon health.
		return nil, false
	}
	c.batches.Add(1)
	c.batchRecords.Add(uint64(len(recs)))
	c.rawBytes.Add(uint64(rawCount.n))
	c.wireBytes.Add(uint64(len(res.body)))
	out := make(map[depstore.Ref][]byte, len(recs))
	for _, rec := range recs {
		if !rec.Missing {
			out[depstore.Ref{Kind: rec.Kind, Key: rec.Key}] = rec.Payload
		}
	}
	return out, true
}

// BatchPut uploads many records in one gzip-compressed round trip via
// POST /v1/store/batch-put. It returns whether the records were
// delivered; on false the caller's local tiers still hold the records
// (the remote tier is a cache of a cache).
func (c *Client) BatchPut(recs []depstore.BatchRecord) bool {
	if len(recs) == 0 {
		return true
	}
	wrecs := make([]wire.Record, len(recs))
	for i, rec := range recs {
		wrecs[i] = wire.Record{Kind: rec.Kind, Key: rec.Key, Payload: rec.Payload}
	}
	var framed bytes.Buffer
	if err := wire.Write(&framed, wrecs); err != nil {
		return false
	}
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	if _, err := gz.Write(framed.Bytes()); err != nil {
		return false
	}
	if err := gz.Close(); err != nil {
		return false
	}
	res, err := c.do(http.MethodPost, c.base+"/v1/store/batch-put", zipped.Bytes(), map[string]string{
		"Content-Encoding": "gzip",
	}, 4096)
	if err != nil || (res.status != http.StatusNoContent && res.status != http.StatusOK) {
		return false
	}
	c.batches.Add(1)
	c.batchRecords.Add(uint64(len(recs)))
	c.rawBytes.Add(uint64(framed.Len()))
	c.wireBytes.Add(uint64(zipped.Len()))
	return true
}
