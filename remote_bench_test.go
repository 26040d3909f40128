// BenchmarkRemoteWarmStart measures the cost a warm-start client pays
// to pull an already-computed record set out of a daemon, batch
// protocol versus the per-record fallback a failed batch forces.
// The server injects a fixed per-request latency so the benchmark
// models a real network hop instead of loopback syscall cost: with N
// records the per-record path pays ~N round trips of it, the batch
// path pays one. The round-trip ratio is asserted here (>=5x fewer);
// the wall-clock win is gated by scripts/bench.sh against the recorded
// baseline.

package fsdep

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/service"
)

// warmStartRecords is the fleet-fixture size: roughly the record count
// a full corpus analysis stores (19 on the current corpus), rounded up.
const warmStartRecords = 24

// warmStartLatency is the injected per-request service time — the
// point of the benchmark is that round trips dominate warm start, so
// each one must cost something network-shaped.
const warmStartLatency = 500 * time.Microsecond

func warmStartFixture(b *testing.B) (*depstore.Store, []depstore.Ref) {
	store, err := depstore.OpenWith(depstore.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]depstore.Ref, warmStartRecords)
	for i := range refs {
		refs[i] = depstore.Ref{
			Kind: depstore.KindTaint,
			Key:  depstore.Key(fmt.Sprintf("warm-start-%d", i)),
		}
		payload := []byte(strings.Repeat(fmt.Sprintf(`{"rec":%d,"flow":["param","use"]}`, i), 128))
		if err := store.Put(refs[i].Kind, refs[i].Key, payload); err != nil {
			b.Fatal(err)
		}
	}
	return store, refs
}

func BenchmarkRemoteWarmStart(b *testing.B) {
	store, refs := warmStartFixture(b)
	inner := service.NewServer(nil, store, nil, "bench").Handler()
	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(warmStartLatency)
			h.ServeHTTP(w, r)
		})
	}
	modern := httptest.NewServer(slow(inner))
	defer modern.Close()
	// A daemon whose bulk routes 404: same store, same per-record
	// surface — the client's silent fallback turns this into one round
	// trip per record.
	legacy := httptest.NewServer(slow(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/store/batch-") {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})))
	defer legacy.Close()

	// One warm start: a fresh client and cold local tier (remote-only
	// plus hot memory, the CLI's degraded-local configuration) prefetches
	// the manifest and then reads every record, exactly the sequence
	// AnalyzeAll drives. Returns the round trips that start paid.
	warmStart := func(b *testing.B, url string) uint64 {
		c := remote.New(url)
		local, err := depstore.OpenWith(depstore.Options{Remote: c, HotRecords: warmStartRecords})
		if err != nil {
			b.Fatal(err)
		}
		local.Prefetch(refs)
		for _, ref := range refs {
			if _, ok := local.Get(ref.Kind, ref.Key); !ok {
				b.Fatalf("warm start missed %s/%s", ref.Kind, ref.Key)
			}
		}
		return c.Stats().RoundTrips
	}

	measured := make(map[string]float64, 2)
	for _, bm := range []struct {
		name string
		url  string
	}{
		{"batch", modern.URL},
		{"per-record", legacy.URL},
	} {
		b.Run(bm.name, func(b *testing.B) {
			var roundTrips uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrips += warmStart(b, bm.url)
			}
			perOp := float64(roundTrips) / float64(b.N)
			b.ReportMetric(perOp, "roundtrips/op")
			measured[bm.name] = perOp
		})
	}

	// The headline contract: batch warm start in >=5x fewer round trips.
	// (Measured: 1 vs 25 — the prefetch, vs one probe that discovers the
	// missing endpoint plus one GET per record.)
	if batch, legacy := measured["batch"], measured["per-record"]; batch*5 > legacy {
		b.Fatalf("batch warm start took %.1f round trips/op vs %.1f per-record: want >=5x fewer", batch, legacy)
	}
}
