// Taint memoization: Analyze recomputes nothing that an earlier
// scenario already derived. A taint run over a component is a pure
// function of (compiled program, seeds, mode, function set, sanitizer
// set) — the program is compiled once per Component, the seeds derive
// only from Params, and the engine normalizes function order — so the
// result is cached on the Component under a canonical signature of the
// remaining inputs. The cache is singleflight-style and sticky like
// Compile: concurrent first users of a signature share one run, and
// every later caller gets the same *taint.Result. Cached results are
// shared across scenarios and must be treated as read-only; every
// derivation pass in this package only reads them, which is what keeps
// cached output byte-identical to a cold run.

package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fsdep/internal/depstore"
	"fsdep/internal/taint"
)

// CacheStats counts taint-memo outcomes. A "miss" is a signature not
// answered by the in-process memo; a "hit" reused a finished (or
// in-flight) run. The remaining counters split the misses by layer:
// DiskHits/DiskMisses count persistent-store record outcomes when a
// store is attached, and EngineRuns counts actual taint fixpoint
// executions (a miss neither layer could answer). SummaryHits and
// SummaryMisses are retired: the per-function summary table they
// counted is gone, so they are always 0.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	DiskHits      uint64
	DiskMisses    uint64
	EngineRuns    uint64
	SummaryHits   uint64
	SummaryMisses uint64
}

// taintEntry is one memoized taint run.
type taintEntry struct {
	once  sync.Once
	res   *taint.Result
	seeds []taint.Seed
}

// taintSig builds the canonical cache key: mode, fixpoint budget,
// sorted sanitizers, sorted function names. Sorting makes the key
// insensitive to caller ordering, which is sound because the engine
// analyzes in program order (the result depends only on the sets). The
// budget is part of the key because a truncated run (BudgetErr set) is
// a different result than a converged one.
func taintSig(mode taint.Mode, maxIter int, sanitizers, funcs []string) string {
	var b strings.Builder
	b.WriteByte(byte(mode))
	fmt.Fprintf(&b, "/%d", maxIter)
	for _, s := range sortedCopy(sanitizers) {
		b.WriteByte(0)
		b.WriteString(s)
	}
	b.WriteByte(1)
	for _, f := range sortedCopy(funcs) {
		b.WriteByte(0)
		b.WriteString(f)
	}
	return b.String()
}

func sortedCopy(ss []string) []string {
	if len(ss) < 2 {
		return ss
	}
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// seedsOf builds the taint seeds for a component's parameter list.
func seedsOf(params []Param) []taint.Seed {
	seeds := make([]taint.Seed, 0, len(params))
	for _, p := range params {
		sd := taint.Seed{Param: p.Name, Func: p.Func, Var: p.Var}
		// A dotted Var ("opts.blocksize") seeds a struct field.
		if i := strings.IndexByte(p.Var, '.'); i >= 0 {
			sd.Var, sd.Field = p.Var[:i], p.Var[i+1:]
		}
		seeds = append(seeds, sd)
	}
	return seeds
}

// analyzeTaint returns the component's memoized taint result for the
// given function selection, running the engine at most once per
// distinct (mode, sanitizer set, function set) signature. The
// component must be compiled. Goroutine-safe.
func (c *Component) analyzeTaint(funcs []string, opts Options) (*taint.Result, []taint.Seed) {
	sig := taintSig(opts.Mode, opts.MaxIter, opts.Sanitizers, funcs)
	e, _ := c.taintMemo.LoadOrStore(sig, &taintEntry{})
	ent := e.(*taintEntry)
	ran := false
	ent.once.Do(func() {
		ran = true
		ent.seeds = seedsOf(c.Params)
		// Disk layer: a converged result persisted under the component's
		// content hash plus this signature answers the miss without
		// running the engine. Truncated (BudgetErr) runs are never
		// persisted, so a disk hit is always a converged run.
		var diskKey string
		if opts.Store != nil {
			diskKey = depstore.Key(c.ContentHash(), sig)
			if res, ok := depstore.LoadTaint(opts.Store, diskKey, c.prog); ok {
				atomic.AddUint64(&c.diskHits, 1)
				ent.res = res
				return
			}
			atomic.AddUint64(&c.diskMisses, 1)
		}
		atomic.AddUint64(&c.engineRuns, 1)
		ent.res = taint.Run(c.prog, ent.seeds, taint.Options{
			Mode:       opts.Mode,
			Functions:  funcs,
			Sanitizers: opts.Sanitizers,
			MaxIter:    opts.MaxIter,
		})
		if opts.Store != nil {
			// Best-effort: a failed write leaves the next run cold.
			_ = depstore.SaveTaint(opts.Store, diskKey, ent.res)
		}
	})
	if ran {
		atomic.AddUint64(&c.cacheMisses, 1)
	} else {
		atomic.AddUint64(&c.cacheHits, 1)
	}
	return ent.res, ent.seeds
}

// TaintCacheStats reports the component's layered cache counters.
func (c *Component) TaintCacheStats() CacheStats {
	return CacheStats{
		Hits:       atomic.LoadUint64(&c.cacheHits),
		Misses:     atomic.LoadUint64(&c.cacheMisses),
		DiskHits:   atomic.LoadUint64(&c.diskHits),
		DiskMisses: atomic.LoadUint64(&c.diskMisses),
		EngineRuns: atomic.LoadUint64(&c.engineRuns),
	}
}

// TotalCacheStats sums the layered cache counters over an ecosystem.
func TotalCacheStats(comps map[string]*Component) CacheStats {
	var total CacheStats
	for _, c := range comps {
		cs := c.TaintCacheStats()
		total.Hits += cs.Hits
		total.Misses += cs.Misses
		total.DiskHits += cs.DiskHits
		total.DiskMisses += cs.DiskMisses
		total.EngineRuns += cs.EngineRuns
	}
	return total
}
