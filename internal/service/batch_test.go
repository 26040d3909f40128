// Chaos contract tests for the bulk store protocol: every way a batch
// transfer can go wrong — mid-stream truncation, a corrupted frame,
// compressed garbage, an open breaker — must yield a clean client-side
// refusal with zero records admitted to any tier.

package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
)

// batchFixture seeds n distinct records (valid refs, compressible
// payloads) and returns their refs in order.
func batchFixture(n int) ([]depstore.BatchRecord, []depstore.Ref) {
	recs := make([]depstore.BatchRecord, n)
	refs := make([]depstore.Ref, n)
	for i := range recs {
		ref := depstore.Ref{
			Kind: depstore.KindTaint,
			Key:  depstore.Key(fmt.Sprintf("batch-fixture-%d", i)),
		}
		payload := []byte(strings.Repeat(fmt.Sprintf(`{"rec":%d,"deps":["a","b"]}`, i), 20))
		recs[i] = depstore.BatchRecord{Ref: ref, Payload: payload}
		refs[i] = ref
	}
	return recs, refs
}

func TestBatchRoundTrip(t *testing.T) {
	_, store, ts := newServerT(t)
	c := remote.New(ts.URL)
	recs, refs := batchFixture(5)

	if !c.BatchPut(recs) {
		t.Fatal("BatchPut against a batch-capable daemon failed")
	}
	for _, rec := range recs {
		got, ok := store.Get(rec.Kind, rec.Key)
		if !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("server store missing or wrong payload for %s/%s", rec.Kind, rec.Key)
		}
	}

	// Ask for every stored ref plus one the server does not have: the
	// answer must cover all of them, the miss as an explicit absence.
	missing := depstore.Ref{Kind: depstore.KindTaint, Key: depstore.Key("never-stored")}
	got, ok := c.BatchGet(append(append([]depstore.Ref{}, refs...), missing))
	if !ok {
		t.Fatal("BatchGet against a batch-capable daemon failed")
	}
	if len(got) != len(recs) {
		t.Fatalf("BatchGet returned %d records, want %d", len(got), len(recs))
	}
	for _, rec := range recs {
		if !bytes.Equal(got[rec.Ref], rec.Payload) {
			t.Fatalf("BatchGet payload mismatch for %s/%s", rec.Kind, rec.Key)
		}
	}
	if _, have := got[missing]; have {
		t.Fatal("BatchGet fabricated a record for a ref the server never had")
	}

	bs := c.Stats()
	// The client counts wire frames, and the explicit-absence frame for
	// the missing ref is one of them.
	wantFrames := uint64(2*len(recs) + 1)
	if bs.Batches != 2 || bs.BatchRecords != wantFrames {
		t.Fatalf("client batch stats = %d batches / %d records, want 2 / %d", bs.Batches, bs.BatchRecords, wantFrames)
	}
	if bs.RoundTrips != 2 {
		t.Fatalf("two bulk transfers took %d round trips, want 2", bs.RoundTrips)
	}
	if bs.RawBytes == 0 || bs.WireBytes == 0 || bs.WireBytes >= bs.RawBytes {
		t.Fatalf("compression stats raw=%d wire=%d: want 0 < wire < raw for repetitive payloads", bs.RawBytes, bs.WireBytes)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Service.BatchGets != 1 || st.Service.BatchPuts != 1 {
		t.Fatalf("service stats = %d batch gets / %d batch puts, want 1 / 1", st.Service.BatchGets, st.Service.BatchPuts)
	}
	if st.Service.BatchRecords != uint64(2*len(recs)) {
		t.Fatalf("service batch records = %d, want %d", st.Service.BatchRecords, 2*len(recs))
	}
	if st.Service.BatchWireBytes == 0 || st.Service.BatchWireBytes >= st.Service.BatchRawBytes {
		t.Fatalf("service compression stats raw=%d wire=%d", st.Service.BatchRawBytes, st.Service.BatchWireBytes)
	}
}

func TestPrefetchWarmsEveryTier(t *testing.T) {
	_, store, ts := newServerT(t)
	recs, refs := batchFixture(4)
	for _, rec := range recs {
		if err := store.Put(rec.Kind, rec.Key, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}

	c := remote.New(ts.URL)
	local, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), Remote: c, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	local.Prefetch(refs)
	if got := local.Stats().Prefetched; got != uint64(len(refs)) {
		t.Fatalf("prefetched %d records, want %d", got, len(refs))
	}
	rt := c.Stats().RoundTrips
	if rt != 1 {
		t.Fatalf("prefetch took %d round trips, want 1", rt)
	}
	// Every subsequent Get is answered in-process: no new round trips.
	for _, rec := range recs {
		got, ok := local.Get(rec.Kind, rec.Key)
		if !ok || !bytes.Equal(got, rec.Payload) {
			t.Fatalf("post-prefetch Get missed %s/%s", rec.Kind, rec.Key)
		}
	}
	if got := c.Stats().RoundTrips; got != rt {
		t.Fatalf("warm Gets paid %d extra round trips", got-rt)
	}
	if hot := local.Stats().HotHits; hot != uint64(len(recs)) {
		t.Fatalf("hot tier answered %d of %d warm Gets", hot, len(recs))
	}
}

// mangleBatchGet wraps a service handler, rewriting successful
// batch-get response bodies through mangle (headers pass through, so
// the gzip negotiation stays honest).
func mangleBatchGet(inner http.Handler, mangle func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/store/batch-get" {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			// The body is rewritten, so the recorded length is wrong.
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(mangle(rec.Body.Bytes()))
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// assertBatchRefused drives a prefetch and a Get against a mangled
// daemon and asserts the full contract: BatchGet refuses, the Get is a
// clean miss, nothing is admitted to the local tiers, and the breaker
// records a healthy exchange (payload damage is not daemon death).
func assertBatchRefused(t *testing.T, name string, mangle func([]byte) []byte) {
	t.Helper()
	_, store, _ := newServerT(t)
	recs, refs := batchFixture(4)
	for _, rec := range recs {
		if err := store.Put(rec.Kind, rec.Key, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	mts := httptest.NewServer(mangleBatchGet(NewServer(nil, store, nil, "test").Handler(), mangle))
	defer mts.Close()

	c := remote.New(mts.URL)
	local, err := depstore.OpenWith(depstore.Options{Dir: t.TempDir(), Remote: c, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.BatchGet(refs); ok {
		t.Fatalf("%s: BatchGet accepted a damaged stream", name)
	}
	local.Prefetch(refs)
	st := local.Stats()
	if st.Prefetched != 0 || st.Writes != 0 {
		t.Fatalf("%s: damaged batch admitted records (prefetched=%d writes=%d)", name, st.Prefetched, st.Writes)
	}
	bs := c.Stats()
	if bs.State != "closed" {
		t.Fatalf("%s: payload damage tripped the breaker to %s", name, bs.State)
	}
	if bs.Batches != 0 {
		t.Fatalf("%s: refused transfers counted as completed batches", name)
	}
	// The Get's one-ref batch is damaged the same way: a clean miss,
	// still with nothing admitted.
	if got, ok := local.Get(recs[0].Kind, recs[0].Key); ok {
		t.Fatalf("%s: Get served %q from a damaged stream", name, got)
	}
	if st := local.Stats(); st.RemoteHits != 0 || st.Writes != 0 || st.Misses != 1 {
		t.Fatalf("%s: damaged Get admitted records or miscounted: %+v", name, st)
	}
}

func TestBatchGetTruncationRefused(t *testing.T) {
	assertBatchRefused(t, "truncation", func(b []byte) []byte { return b[:len(b)/2] })
}

func TestBatchGetCorruptionRefused(t *testing.T) {
	assertBatchRefused(t, "corruption", func(b []byte) []byte {
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0xff
		return mut
	})
}

func TestBatchGetGzipGarbageRefused(t *testing.T) {
	// Keep the gzip Content-Encoding header but replace the body with
	// bytes that are not a gzip stream at all.
	assertBatchRefused(t, "gzip-garbage", func([]byte) []byte {
		return []byte("this is not a gzip stream, sorry about that")
	})
}

func TestBatchShortCircuitsOpenBreaker(t *testing.T) {
	// A server that always 500s: one failed request opens the
	// threshold-1 breaker, and with an hour's cooldown it stays open.
	fails := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer fails.Close()
	c := remote.NewWithConfig(fails.URL, remote.Config{
		MaxRetries: -1,
		Threshold:  1,
		Cooldown:   time.Hour,
	})
	if _, ok := c.BatchGet([]depstore.Ref{{Kind: depstore.KindTaint, Key: depstore.Key("trip")}}); ok {
		t.Fatal("BatchGet against a 500ing server succeeded")
	}
	if c.Stats().State != "open" {
		t.Fatalf("breaker %s after threshold failures, want open", c.Stats().State)
	}
	rt := c.Stats().RoundTrips
	recs, refs := batchFixture(2)
	if _, ok := c.BatchGet(refs); ok {
		t.Fatal("BatchGet through an open breaker succeeded")
	}
	if c.BatchPut(recs) {
		t.Fatal("BatchPut through an open breaker succeeded")
	}
	if got := c.Stats().RoundTrips; got != rt {
		t.Fatalf("open breaker let %d batch round trips through", got-rt)
	}
}
