// BenchmarkRemoteWarmStart measures the cost a warm-start client pays
// to pull an already-computed record set out of a daemon. The server
// injects a fixed per-request latency so the benchmark models a real
// network hop instead of loopback syscall cost: a warm start must pay
// it exactly once, for the prefetch, and the benchmark fails if any
// record costs a round trip of its own.

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
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(warmStartLatency)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// One warm start: a fresh client and cold local tier (remote-only
	// plus hot memory, the CLI's degraded-local configuration) prefetches
	// the manifest and then reads every record, exactly the sequence
	// AnalyzeAll drives. Returns the round trips that start paid.
	warmStart := func(b *testing.B) uint64 {
		c := remote.New(ts.URL)
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

	b.Run("batch", func(b *testing.B) {
		var roundTrips uint64
		for i := 0; i < b.N; i++ {
			roundTrips += warmStart(b)
		}
		perOp := float64(roundTrips) / float64(b.N)
		b.ReportMetric(perOp, "roundtrips/op")
		// The headline contract: the prefetch is the only round trip.
		if perOp != 1 {
			b.Fatalf("warm start took %.2f round trips/op, want exactly 1 (the prefetch)", perOp)
		}
	})
}
