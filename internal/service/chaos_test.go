// The chaos suite for the service tier: the daemon's wire faults are
// injected by the Chaos middleware, the client's recovery machinery
// runs on a ticking fake clock, and the oracle is always the same —
// byte-identical analysis output or clean typed errors, never corrupt
// data, never a permanently wedged client.

package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fsdep/internal/core"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/sched"
)

// tickClock advances a fixed step on every Now() and the full duration
// on every Sleep(), so breaker cooldowns expire across a run of
// short-circuited requests without any wall time passing.
type tickClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newTickClock(step time.Duration) *tickClock {
	return &tickClock{now: time.Unix(1_700_000_000, 0), step: step}
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *tickClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// chaosClientConfig: single-attempt requests (breaker arithmetic stays
// exact) on a 200ms-per-observation clock against a 1s cooldown, so
// roughly five short-circuited requests earn the next probe.
func chaosClientConfig() remote.Config {
	return remote.Config{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     -1,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Threshold:      3,
		Cooldown:       time.Second,
		Seed:           7,
		Clock:          newTickClock(200 * time.Millisecond),
	}
}

// getOne fetches one record in a one-ref batch, the way a local miss
// in depstore.Store does.
func getOne(c *remote.Client, kind, key string) ([]byte, bool) {
	ref := depstore.Ref{Kind: kind, Key: key}
	got, ok := c.BatchGet([]depstore.Ref{ref})
	payload, have := got[ref]
	return payload, ok && have
}

// analyzeVia runs the full fixture analysis through a tiered store
// whose remote is the given client, returning the rendered results.
func analyzeVia(t *testing.T, client *remote.Client) string {
	t.Helper()
	store, err := depstore.OpenWith(depstore.Options{Remote: client})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeAll(svcFixture(), svcScenarios(), core.Options{Store: store}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	return renderResults(t, res)
}

// TestChaosBreakerRecoveryByteIdentical is the tentpole's end-to-end
// arc: the daemon "dies" mid-run (a window of injected 500s on the
// store routes), the client's breaker opens, the daemon "returns" (the
// fault window ends), a half-open probe re-closes the breaker, and
// every analysis in between and after is byte-identical to a fault-free
// run. Under the old trip-forever client the final state assertion
// fails: nothing ever re-closed the breaker.
func TestChaosBreakerRecoveryByteIdentical(t *testing.T) {
	_, _, healthyTS := newServerT(t)
	want := analyzeVia(t, remote.New(healthyTS.URL))

	// A second daemon whose store wire fails requests 4-15, then heals.
	failWindow := make([]uint64, 0, 12)
	for i := uint64(4); i <= 15; i++ {
		failWindow = append(failWindow, i)
	}
	store, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(svcFixture(), svcScenarios(), core.Options{Store: store}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(a, store, nil, "test")
	sv.SetChaos(NewChaos(Rule{PathPrefix: "/v1/store/", FailOps: failWindow}))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	client := remote.NewWithConfig(ts.URL, chaosClientConfig())

	// The run that crosses the fault window: the store tier fails
	// underneath it, the answer must not change.
	if got := analyzeVia(t, client); got != want {
		t.Fatalf("analysis under daemon failure diverged:\nwant %s\ngot  %s", want, got)
	}
	st := client.Stats()
	if st.Opens == 0 {
		t.Fatalf("fault window never opened the breaker (stats %+v) — the chaos run was vacuous", st)
	}

	// The daemon is back; each short-circuited request advances the
	// clock toward the cooldown, then a probe must re-close the breaker.
	for i := 0; i < 100 && client.Stats().Recloses == 0; i++ {
		getOne(client, "taint", strings.Repeat("ab", 16))
	}
	st = client.Stats()
	if st.Recloses == 0 || st.Probes == 0 {
		t.Fatalf("breaker never recovered after the daemon returned: %+v", st)
	}
	if st.State != "closed" {
		t.Fatalf("final breaker state = %s, want closed (stats %+v)", st.State, st)
	}

	// Fully healed: a fresh run is byte-identical and the remote tier
	// participates again (this client pushes, so the daemon store warms).
	if got := analyzeVia(t, client); got != want {
		t.Fatalf("post-recovery analysis diverged:\nwant %s\ngot  %s", want, got)
	}
	if ds := store.Stats(); ds.Writes == 0 {
		t.Errorf("daemon store never warmed after recovery: %+v", ds)
	}
}

// TestChaosTruncatedResponsesDegradeToMisses: a daemon whose answers
// are cut off mid-body (crash while writing the wire) must read as
// misses/clean errors on the client — the truncated payload must never
// be taken for a record.
func TestChaosTruncatedResponsesDegradeToMisses(t *testing.T) {
	_, daemonStore, _ := newServerT(t)
	payload := []byte(`{"a-real":"record","with":"enough bytes to truncate"}`)
	key := depstore.Key("trunc-target")
	if err := daemonStore.Put("taint", key, payload); err != nil {
		t.Fatal(err)
	}
	a, err := New(svcFixture(), svcScenarios(), core.Options{Store: daemonStore}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(a, daemonStore, nil, "test")
	sv.SetChaos(NewChaos(Rule{PathPrefix: "/v1/store/", TruncateOps: []uint64{1, 2, 3}, TruncateBytes: 8}))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	cfg := chaosClientConfig()
	cfg.Threshold = 10 // keep the breaker out of the way: truncation itself is under test
	client := remote.NewWithConfig(ts.URL, cfg)
	for i := 0; i < 3; i++ {
		if got, ok := getOne(client, "taint", key); ok {
			t.Fatalf("truncated response served as a record: %q", got)
		}
	}
	// Request 4 is past the fault plan: the intact record comes through.
	got, ok := getOne(client, "taint", key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("post-chaos get = %q, %v; want the intact record", got, ok)
	}
}

// TestLoadShedContract: requests beyond the in-flight bound get 503 +
// Retry-After and no handler work; requests within the bound succeed.
func TestLoadShedContract(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	a, err := New(svcFixture(), svcScenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(a, nil, nil, "test")
	sv.SetMaxInFlight(1)
	// Hold the single slot by parking the first request inside a chaos
	// latency rule whose sleeper blocks until the test releases it.
	blocker := NewChaos(Rule{PathPrefix: "/v1/ping", Latency: time.Hour, LatencyOps: []uint64{1}})
	blocker.Sleep = func(time.Duration) {
		started <- struct{}{}
		<-release
	}
	sv.SetChaos(blocker)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/ping")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the single slot is now held

	resp, err := http.Get(ts.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded daemon answered %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	close(release)
	wg.Wait()

	// Slot free again: served normally, and the shed is counted.
	resp, err = http.Get(ts.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed ping = %d, want 200", resp.StatusCode)
	}
	if sv.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", sv.shed.Load())
	}
}

// TestChaosDisconnectsAndRetries: dropped connections are transport
// errors the client retries through; with retries exhausted they count
// failures toward the breaker but never produce data.
func TestChaosDisconnectsAndRetries(t *testing.T) {
	_, daemonStore, _ := newServerT(t)
	payload := []byte(`{"survives":"drops"}`)
	key := depstore.Key("drop-target")
	if err := daemonStore.Put("taint", key, payload); err != nil {
		t.Fatal(err)
	}
	a, err := New(svcFixture(), svcScenarios(), core.Options{Store: daemonStore}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(a, daemonStore, nil, "test")
	sv.SetChaos(NewChaos(Rule{PathPrefix: "/v1/store/", DropOps: []uint64{1, 3}}))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	cfg := chaosClientConfig()
	cfg.MaxRetries = 2
	client := remote.NewWithConfig(ts.URL, cfg)
	// Server ops: 1 dropped, 2 ok — the retry rides out the drop.
	got, ok := getOne(client, "taint", key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("get across a dropped connection = %q, %v", got, ok)
	}
	// Server ops: 3 dropped, 4 ok — same story, and the breaker stays
	// closed because every logical request ultimately succeeded.
	if got, ok := getOne(client, "taint", key); !ok || string(got) != string(payload) {
		t.Fatalf("second get across a drop = %q, %v", got, ok)
	}
	st := client.Stats()
	if st.State != "closed" || st.Retries == 0 {
		t.Errorf("stats = %+v, want closed breaker with retries recorded", st)
	}
}

// TestScrubEndpoint: POST /v1/scrub heals a corrupted daemon store and
// the report lands in /v1/stats.
func TestScrubEndpoint(t *testing.T) {
	_, daemonStore, ts := newServerT(t)
	good := depstore.Key("scrub-good")
	if err := daemonStore.Put("taint", good, []byte(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a second record on disk behind the store's back.
	bad := depstore.Key("scrub-bad")
	if err := daemonStore.Put("taint", bad, []byte(`{"ok":2}`)); err != nil {
		t.Fatal(err)
	}
	recs, err := depstore.ListRecords(daemonStore.Dir(), "taint")
	if err != nil || len(recs) != 2 {
		t.Fatalf("records = %v, %v", recs, err)
	}
	for _, p := range recs {
		if strings.Contains(p, bad[:16]) {
			if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	resp, err := http.Post(ts.URL+"/v1/scrub", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep depstore.ScrubReport
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Valid != 1 || rep.Removed != 1 {
		t.Errorf("scrub report = %+v, want 2 scanned / 1 valid / 1 removed", rep)
	}
	// The good record still answers; the bad one is a clean miss.
	if _, ok := daemonStore.Get("taint", good); !ok {
		t.Error("scrub removed the valid record")
	}
	if _, ok := daemonStore.Get("taint", bad); ok {
		t.Error("scrub left the corrupt record answering")
	}
	// The report surfaces in stats until the next scrub.
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Scrub == nil || st.Scrub.Removed != 1 {
		t.Errorf("stats.scrub = %+v, want the last report", st.Scrub)
	}
}
