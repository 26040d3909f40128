// Command fsdepd runs the analysis pipeline as a long-running HTTP
// daemon: it owns a warm core.Session over the Ext4 ecosystem plus the
// persistent record store, serves dependency / violation / degradation
// queries over JSON, accepts component-source uploads (incremental
// strict-subset re-analysis), and exposes the record store itself so
// any CLI pointed at it with -store-url shares the warm extractions —
// compute once, serve many.
//
// Usage:
//
//	fsdepd [-addr HOST:PORT] [-cache-dir DIR] [-mode intra|inter] [-parallel N]
//	       [-max-store-bytes N] [-max-inflight N] [-warm] [-scrub] [-url-file FILE]
//
// -addr accepts ":0" to bind an ephemeral port; the chosen URL is
// printed on stderr and, with -url-file, written to a file so scripts
// (and the CI smoke test) can discover it. -max-store-bytes bounds the
// on-disk store with LRU eviction, checked at startup and once a
// minute. -warm runs the full corpus analysis before serving, so the
// first query is already hot. -scrub re-validates every store record
// before serving and removes the ones a crash or bit-rot corrupted
// (the same pass is available while serving via POST /v1/scrub).
//
// Robustness: the server carries read/write timeouts so a stalled
// client can't pin a connection forever, and sheds load beyond
// -max-inflight concurrently served requests with 503 + Retry-After
// instead of queueing without bound.
//
// Consistency: uploads take the single-writer lock — in-flight queries
// complete against the previous analysis generation, later queries see
// the re-analyzed world, and every response matches what the
// equivalent CLI invocation over the same sources would report.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM), 1 startup or serve
// failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fsdep/internal/cliutil"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depstore"
	"fsdep/internal/sched"
	"fsdep/internal/service"
	"fsdep/internal/taint"
)

// evictInterval is how often the size bound is re-checked while
// serving.
const evictInterval = time.Minute

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (use :0 for an ephemeral port)")
	cacheDir := flag.String("cache-dir", cliutil.DefaultCacheDir(), "persistent record store directory (required)")
	mode := flag.String("mode", "intra", "taint mode: intra (paper prototype) or inter (extension)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of analysis workers")
	maxStoreBytes := flag.Int64("max-store-bytes", 0, "evict least-recently-used records beyond this store size (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "shed requests beyond this many in flight with 503 (0 = default)")
	warm := flag.Bool("warm", false, "run the full corpus analysis before serving")
	scrub := flag.Bool("scrub", false, "re-validate every store record before serving, removing corrupt ones")
	urlFile := flag.String("url-file", "", "write the daemon's base URL to this file once listening")
	flag.Parse()

	var tm taint.Mode
	switch *mode {
	case "intra":
		tm = taint.Intra
	case "inter":
		tm = taint.Inter
	default:
		cliutil.Usagef("fsdepd", "unknown mode %q", *mode)
	}
	if *cacheDir == "" {
		cliutil.Usagef("fsdepd", "-cache-dir is required: the daemon exists to own a shared record store")
	}

	// The hot tier matters most here: the daemon re-serves the same
	// record set to every warm client, so after the first client the
	// answers come from memory, not the disk open/checksum path.
	store, err := depstore.OpenWith(depstore.Options{Dir: *cacheDir, HotRecords: depstore.DefaultHotRecords})
	if err != nil {
		cliutil.Failf("fsdepd", err)
	}
	if *scrub {
		rep, err := store.Scrub(depstore.ScrubOptions{})
		if err != nil {
			cliutil.Failf("fsdepd", err)
		}
		fmt.Fprintf(os.Stderr, "fsdepd: scrub: %d scanned, %d valid, %d removed (%d corrupt, %d version-skew, %d kind-mismatch)\n",
			rep.Scanned, rep.Valid, rep.Removed, rep.Corrupt, rep.VersionSkew, rep.KindMismatch)
	}
	evict(store, *maxStoreBytes)

	analysis, err := service.New(corpus.Components(), corpus.Scenarios(),
		core.Options{Mode: tm, Store: store}, sched.Options{Workers: *parallel})
	if err != nil {
		cliutil.Failf("fsdepd", err)
	}

	if *warm {
		start := time.Now()
		if _, err := analysis.Results(); err != nil {
			cliutil.Failf("fsdepd", err)
		}
		fmt.Fprintf(os.Stderr, "fsdepd: corpus warm in %v\n", time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliutil.Failf("fsdepd", err)
	}
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "fsdepd: listening on %s (store: %s)\n", baseURL, store.Dir())
	if *urlFile != "" {
		if err := os.WriteFile(*urlFile, []byte(baseURL+"\n"), 0o644); err != nil {
			cliutil.Failf("fsdepd", err)
		}
	}

	sv := service.NewServer(analysis, store, corpus.Score, "ext4")
	sv.SetMaxInFlight(*maxInflight)
	srv := &http.Server{
		Handler: sv.Handler(),
		// A stalled or malicious client gets a bounded slice of the
		// daemon, never a pinned connection: headers must arrive fast,
		// whole requests and responses within an analysis-sized budget.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *maxStoreBytes > 0 {
		go func() {
			tick := time.NewTicker(evictInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					evict(store, *maxStoreBytes)
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cliutil.Failf("fsdepd", err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "fsdepd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			cliutil.Failf("fsdepd", err)
		}
	}
}

// evict applies the size bound once; eviction failures are warnings,
// never fatal (the store keeps serving, just bigger than asked).
func evict(store *depstore.Store, maxBytes int64) {
	if maxBytes <= 0 {
		return
	}
	n, err := store.Evict(maxBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdepd: eviction: %v\n", err)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "fsdepd: evicted %d record(s) to stay under %d bytes\n", n, maxBytes)
	}
}
