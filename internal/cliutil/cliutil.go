// Package cliutil fixes the exit-code convention shared by every
// command in this repository and holds the small helpers the commands
// repeat: usage failures exit 2, analysis failures exit 1, and a
// degraded-but-completed run exits 0 after summarizing what was
// quarantined on stderr. It also owns the -checkpoint/-resume journal
// plumbing so the sweep commands agree on the semantics: -checkpoint
// alone starts a fresh journal (clobbering any previous one),
// -checkpoint with -resume replays finished trials from it. The sweep
// commands also share their extraction stage (ExtractUnion) and the
// store flags every analysis command accepts (StoreFlags).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fsdep/internal/checkpoint"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/sched"
)

// Exit codes shared by every command.
const (
	// ExitOK: success, including degraded-but-completed runs.
	ExitOK = 0
	// ExitFailure: the analysis or sweep itself failed, or it completed
	// and found real problems.
	ExitFailure = 1
	// ExitUsage: the invocation was malformed.
	ExitUsage = 2
)

// Usagef reports a malformed invocation and exits 2.
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(ExitUsage)
}

// Failf reports an analysis failure and exits 1.
func Failf(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitFailure)
}

// WarnDegradations summarizes a degraded run on stderr. The caller
// still exits 0: quarantined components are a warning, not a failure —
// every healthy component produced results.
func WarnDegradations(tool string, degs []core.Degradation) {
	if len(degs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: degraded run: %d component(s) quarantined\n", tool, len(degs))
	for _, d := range degs {
		fmt.Fprintf(os.Stderr, "%s:   %s\n", tool, d)
	}
}

// DefaultCacheDir returns the default persistent extraction cache
// location (the OS user cache directory plus "fsdep"), or "" when no
// cache location can be derived — the commands then run cold, exactly
// as if -cache-dir "" had been passed.
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "fsdep")
}

// StoreFlags registers the -cache-dir and -store-url flags every
// analysis command shares; pass their values to OpenStore.
func StoreFlags() (cacheDir, storeURL *string) {
	cacheDir = flag.String("cache-dir", DefaultCacheDir(), "persistent extraction cache directory (empty disables)")
	storeURL = flag.String("store-url", "", "base URL of a running fsdepd used as a remote record tier (e.g. http://127.0.0.1:7070)")
	return cacheDir, storeURL
}

// OpenStore opens the persistent extraction cache: a local tier at dir
// and, when storeURL names a running fsdepd, a remote fall-through
// tier. An empty dir with no URL deliberately disables caching (nil
// store, silently — that is a choice, not a failure). An unusable
// directory or an unreachable daemon is different: each warns once on
// stderr and the run continues with whatever tiers remain (possibly
// cold) — the cache is an optimization, and a cold run with a warning
// beats both a hard exit and a silent degrade.
func OpenStore(tool, dir, storeURL string) *depstore.Store {
	return openStore(os.Stderr, tool, dir, storeURL)
}

// envDuration reads a duration knob; a malformed value warns and falls
// back to the client default rather than failing the run.
func envDuration(w io.Writer, tool, name string) (time.Duration, bool) {
	v := os.Getenv(name)
	if v == "" {
		return 0, false
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		fmt.Fprintf(w, "%s: ignoring %s=%q: want a positive duration like 500ms\n", tool, name, v)
		return 0, false
	}
	return d, true
}

// storeConfigFromEnv assembles the remote client's recovery settings
// from the FSDEP_STORE_* environment knobs (unset = client defaults):
//
//	FSDEP_STORE_TIMEOUT   per-attempt deadline        (duration, e.g. 2s)
//	FSDEP_STORE_RETRIES   retries per request         (int, 0 disables)
//	FSDEP_STORE_BACKOFF   base retry backoff          (duration, e.g. 50ms)
//	FSDEP_STORE_COOLDOWN  breaker open→half-open wait (duration, e.g. 3s)
//
// Environment variables rather than flags because every CLI shares
// them and they tune plumbing, not analysis.
func storeConfigFromEnv(w io.Writer, tool string) remote.Config {
	var cfg remote.Config
	if d, ok := envDuration(w, tool, "FSDEP_STORE_TIMEOUT"); ok {
		cfg.RequestTimeout = d
	}
	if v := os.Getenv("FSDEP_STORE_RETRIES"); v != "" {
		if n, err := strconv.Atoi(v); err != nil || n < 0 {
			fmt.Fprintf(w, "%s: ignoring FSDEP_STORE_RETRIES=%q: want a non-negative integer\n", tool, v)
		} else if n == 0 {
			cfg.MaxRetries = -1 // the config's explicit "no retries"
		} else {
			cfg.MaxRetries = n
		}
	}
	if d, ok := envDuration(w, tool, "FSDEP_STORE_BACKOFF"); ok {
		cfg.BackoffBase = d
	}
	if d, ok := envDuration(w, tool, "FSDEP_STORE_COOLDOWN"); ok {
		cfg.Cooldown = d
	}
	return cfg
}

// openStore is OpenStore with the warning stream injected for tests.
func openStore(w io.Writer, tool, dir, storeURL string) *depstore.Store {
	var rem depstore.Remote
	if storeURL != "" {
		c := remote.NewWithConfig(storeURL, storeConfigFromEnv(w, tool))
		if err := c.Ping(); err != nil {
			fmt.Fprintf(w, "%s: remote store unreachable, continuing without it: %v\n", tool, err)
		} else {
			rem = c
		}
	}
	if dir == "" && rem == nil {
		return nil // caching disabled (or remote-only requested and the daemon is gone)
	}
	// Every CLI store carries the in-memory hot tier: repeated warm Gets
	// (and remote-only runs re-reading what the prefetch pulled) skip
	// the disk open/checksum path.
	s, err := depstore.OpenWith(depstore.Options{Dir: dir, Remote: rem, HotRecords: depstore.DefaultHotRecords})
	if err != nil {
		if rem != nil {
			// The local tier is broken but the daemon answers: keep the
			// remote tier so the fleet cache still works.
			if s2, err2 := depstore.OpenWith(depstore.Options{Remote: rem, HotRecords: depstore.DefaultHotRecords}); err2 == nil {
				fmt.Fprintf(w, "%s: local cache unusable, using remote store only: %v\n", tool, err)
				return s2
			}
		}
		fmt.Fprintf(w, "%s: cannot open cache at %s, running cold: %v\n", tool, dir, err)
		return nil
	}
	return s
}

// PrintCacheStats reports the layered cache counters on stderr. The
// "engine runs: N" clause is the machine-checked warm-start oracle (CI
// greps for "engine runs: 0" on a second invocation), so its format is
// load-bearing.
func PrintCacheStats(tool string, comps map[string]*core.Component, store *depstore.Store) {
	cs := core.TotalCacheStats(comps)
	fmt.Fprintf(os.Stderr, "%s: taint cache: %d hits, %d misses; engine runs: %d\n",
		tool, cs.Hits, cs.Misses, cs.EngineRuns)
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "%s: disk store: %d hits (%d hot), %d misses, %d invalidations, %d writes, %d write-back errors\n",
			tool, st.Hits, st.HotHits, st.Misses, st.Invalidations, st.Writes, st.WriteBackErrors)
		if store.HasRemote() {
			fmt.Fprintf(os.Stderr, "%s: remote store: %d hits (%d prefetched), %d misses, %d writes, %d errors\n",
				tool, st.RemoteHits, st.Prefetched, st.RemoteMisses, st.RemoteWrites, st.RemoteErrors)
			if c, ok := store.Remote().(*remote.Client); ok {
				bs := c.Stats()
				// The "round trips" clause is parsed by the CI daemon smoke
				// (warm remote-only clients must finish in <=3), so its
				// format is load-bearing like "engine runs" above.
				fmt.Fprintf(os.Stderr, "%s: remote wire: %d requests, %d round trips, %d batches, %d batch records\n",
					tool, bs.Requests, bs.RoundTrips, bs.Batches, bs.BatchRecords)
				fmt.Fprintf(os.Stderr, "%s: remote bytes: %d raw, %d compressed\n",
					tool, bs.RawBytes, bs.WireBytes)
				fmt.Fprintf(os.Stderr, "%s: remote breaker: %s; %d retries, %d opens, %d probes, %d recloses, %d short-circuits\n",
					tool, bs.State, bs.Retries, bs.Opens, bs.Probes, bs.Recloses, bs.ShortCircuits)
			}
		}
	}
}

// ExtractUnion is the extraction stage the sweep commands share: it
// opens the store, analyzes every corpus scenario under sopts, prints
// the cache counters when stats is set, and returns the union of the
// extracted dependencies. An analysis failure exits 1.
func ExtractUnion(tool, cacheDir, storeURL string, stats bool, sopts sched.Options) *depmodel.Set {
	comps := corpus.Components()
	store := OpenStore(tool, cacheDir, storeURL)
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{Store: store}, sopts)
	if err != nil {
		Failf(tool, err)
	}
	if stats {
		PrintCacheStats(tool, comps, store)
	}
	return core.Union(outs)
}

// OpenJournal opens the -checkpoint journal. An empty path disables
// journaling (nil journal, nothing recorded). Without resume a fresh
// journal replaces any previous file; with resume the existing entries
// replay. resume without a path is a usage error, and an unreadable or
// corrupt journal is an analysis failure.
func OpenJournal(tool, path string, resume bool) *checkpoint.Journal {
	if path == "" {
		if resume {
			Usagef(tool, "-resume requires -checkpoint FILE")
		}
		return nil
	}
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			Failf(tool, err)
		}
	}
	j, err := checkpoint.Open(path)
	if err != nil {
		Failf(tool, err)
	}
	return j
}

// CloseJournal reports the journal's replay counters on stderr and
// closes it; a nil journal (no -checkpoint) is a no-op. A failed close
// is an analysis failure.
func CloseJournal(tool string, j *checkpoint.Journal) {
	if j == nil {
		return
	}
	replayed, recorded := j.Stats()
	fmt.Fprintf(os.Stderr, "%s: checkpoint: %d replayed, %d recorded\n", tool, replayed, recorded)
	if err := j.Close(); err != nil {
		Failf(tool, err)
	}
}
