// Parallel-engine benchmarks: the sequential/parallel variants of the
// Table-5 extraction and the ConHandleCk violation sweep, so the
// recorded BENCH_*.json captures the worker-pool speedup alongside the
// headline-shape assertions.
package fsdep

import (
	"fmt"
	"runtime"
	"testing"

	"fsdep/internal/concrashck"
	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/report"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

func benchmarkExtraction(b *testing.B, workers int) {
	opts := sched.Options{Workers: workers}
	for i := 0; i < b.N; i++ {
		// Pre-compile outside the timer: compilation is memoized per
		// Component and identical for any worker count, so leaving it in
		// the loop masks the parallel speedup of the taint+derivation
		// phase this benchmark exists to measure.
		b.StopTimer()
		comps := corpus.Components()
		for _, c := range comps {
			if err := c.Compile(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := report.RunTable5Opts(comps, core.Options{Mode: taint.Intra}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalExtracted() != 64 || res.TotalFP() != 5 {
			b.Fatalf("extraction = %d deps, %d FP", res.TotalExtracted(), res.TotalFP())
		}
	}
}

// BenchmarkParallelExtraction runs the full four-scenario Table-5
// extraction sequentially and on all cores; identical output, the
// wall-clock ratio is the engine's speedup.
func BenchmarkParallelExtraction(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchmarkExtraction(b, 1) })
	b.Run("workers=max", func(b *testing.B) { benchmarkExtraction(b, runtime.GOMAXPROCS(0)) })
}

func benchmarkConHandleCk(b *testing.B, union *depmodel.Set, workers int) {
	opts := sched.Options{Workers: workers}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := conhandleck.RunParallel(union, opts)
		if n := len(rep.Corruptions()); n != 1 {
			b.Fatalf("silent corruptions = %d, want 1", n)
		}
	}
}

// BenchmarkParallelConHandleCk sweeps every violation sequentially and
// on all cores; each trial drives its own fsim pipeline instance. The
// dependency union is extracted once, outside every timer, and shared
// across the sub-benchmarks, so the ratio measures sweep scaling
// rather than setup serialization.
func BenchmarkParallelConHandleCk(b *testing.B) {
	union := extractUnion(b)
	b.Run("workers=1", func(b *testing.B) { benchmarkConHandleCk(b, union, 1) })
	b.Run("workers=max", func(b *testing.B) { benchmarkConHandleCk(b, union, runtime.GOMAXPROCS(0)) })
}

// sweepScalingWorkers is the worker ladder for the scaling benchmarks:
// the subset of {1, 2, 4} that fits in GOMAXPROCS, plus all cores when
// there are more than 4. Rungs above the core count are omitted rather
// than recorded — oversubscribed workers on a small machine measure
// scheduler churn, not sweep scaling, and they poison the recorded
// baseline (on a 1-core box workers=2/4 benched *slower* than 1).
func sweepScalingWorkers() []int {
	m := runtime.GOMAXPROCS(0)
	var ws []int
	for _, w := range []int{1, 2, 4} {
		if w <= m {
			ws = append(ws, w)
		}
	}
	if m > 4 {
		ws = append(ws, m)
	}
	return ws
}

// BenchmarkSweepScaling is the parallel-efficiency ladder the bench
// gate checks: both sweep apps at workers ∈ {1,2,4,max}. All setup
// (dependency extraction, scenario selection) happens once outside
// every timer; the output of each sweep is byte-identical across the
// ladder, so ns/op ratios are pure scheduling + allocator behavior.
func BenchmarkSweepScaling(b *testing.B) {
	union := extractUnion(b)
	scs := concrashck.Scenarios()[:1]
	copts := concrashck.Options{MaxPointsPerMode: 3, Modes: []concrashck.FaultMode{concrashck.FaultCrash}}
	for _, w := range sweepScalingWorkers() {
		name := fmt.Sprintf("workers=%d", w)
		if w == runtime.GOMAXPROCS(0) && w > 4 {
			name = "workers=max"
		}
		b.Run("ConHandleCk/"+name, func(b *testing.B) { benchmarkConHandleCk(b, union, w) })
		b.Run("ConCrashCk/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := concrashck.SweepParallel(scs, copts, sched.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Trials) == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// analyzeAllCorpus runs the four Table-5 scenarios against the given
// component map and checks the headline dependency count.
func analyzeAllCorpus(b *testing.B, comps map[string]*core.Component) []*core.Result {
	b.Helper()
	return analyzeAllCorpusOpts(b, comps, core.Options{Mode: taint.Intra})
}

// analyzeAllCorpusOpts is analyzeAllCorpus with caller options (e.g.
// a persistent store attached), same shape assertion.
func analyzeAllCorpusOpts(b *testing.B, comps map[string]*core.Component, copts core.Options) []*core.Result {
	b.Helper()
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), copts, sched.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	assertCorpusShape(b, outs)
	return outs
}

func assertCorpusShape(b *testing.B, outs []*core.Result) {
	b.Helper()
	total := 0
	for _, res := range outs {
		total += res.Deps.Len()
	}
	// 232 raw per-scenario dependencies (55+55+64+58) before the
	// Table-5 scoring pass deduplicates and matches ground truth.
	if total != 232 {
		b.Fatalf("extracted deps = %d, want 232", total)
	}
}

// BenchmarkExtractionColdVsWarm is the headline memoization number:
// "cold" recompiles the corpus and repeats all four scenarios from an
// empty taint cache each iteration; "warm" shares one component map, so
// every iteration after the pre-warm is pure cache lookups plus
// dependency derivation. The cold/warm ns-per-op ratio is the speedup
// the memo layer buys repeated-scenario extraction.
func BenchmarkExtractionColdVsWarm(b *testing.B) {
	// The compiled-program cache would answer "cold" recompiles from
	// memory and compress the ratio this benchmark reports; disable it
	// so cold stays truly cold.
	defer core.SetProgramCacheCapacity(core.SetProgramCacheCapacity(0))
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAllCorpus(b, corpus.Components())
		}
	})
	b.Run("warm", func(b *testing.B) {
		comps := corpus.Components()
		analyzeAllCorpus(b, comps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			analyzeAllCorpus(b, comps)
		}
	})
}

// BenchmarkAnalyzeAllCorpusCached runs the full corpus repeatedly over
// one shared component map and asserts that the taint cache is actually
// being reused — a run with zero hits means the memo layer regressed.
func BenchmarkAnalyzeAllCorpusCached(b *testing.B) {
	comps := corpus.Components()
	for i := 0; i < b.N; i++ {
		analyzeAllCorpus(b, comps)
	}
	if stats := core.TotalCacheStats(comps); stats.Hits == 0 {
		b.Fatal("corpus AnalyzeAll produced no taint-cache hits")
	}
}

// BenchmarkColdVsDiskWarm is the persistent-store headline: "cold"
// extracts the corpus into an empty cache directory (engine runs plus
// record writes); "warm" models a second process — fresh components,
// fresh store handle, same directory — answered entirely by
// whole-scenario records, compiling and running nothing. The ratio is
// the warm-start speedup (acceptance floor: 5x).
func BenchmarkColdVsDiskWarm(b *testing.B) {
	defer core.SetProgramCacheCapacity(core.SetProgramCacheCapacity(0))
	// NoSync: the bench measures analysis + store writes, not the
	// durability fsyncs the production default pays.
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store, err := depstore.OpenWith(depstore.Options{Dir: b.TempDir(), NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			comps := corpus.Components()
			b.StartTimer()
			analyzeAllCorpusOpts(b, comps, core.Options{Mode: taint.Intra, Store: store})
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		store, err := depstore.OpenWith(depstore.Options{Dir: dir, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		analyzeAllCorpusOpts(b, corpus.Components(), core.Options{Mode: taint.Intra, Store: store})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := depstore.OpenWith(depstore.Options{Dir: dir, NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			comps := corpus.Components()
			b.StartTimer()
			outs := analyzeAllCorpusOpts(b, comps, core.Options{Mode: taint.Intra, Store: s})
			b.StopTimer()
			if cs := core.TotalCacheStats(comps); cs.EngineRuns != 0 {
				b.Fatalf("warm iteration ran the engine %d times", cs.EngineRuns)
			}
			_ = outs
			b.StartTimer()
		}
	})
}

// BenchmarkIncrementalOneComponent measures Session.Invalidate:
// "full" re-analyzes the whole corpus from scratch after each
// one-component edit; "incremental" re-runs only the edited
// component's signatures and the scenarios referencing it. The edit
// (alternating trailing newlines) changes content without changing the
// extraction, so both variants keep the corpus shape assertion.
func BenchmarkIncrementalOneComponent(b *testing.B) {
	defer core.SetProgramCacheCapacity(core.SetProgramCacheCapacity(0))
	const edited = "resize2fs"
	rev := func(i int) string {
		if i%2 == 0 {
			return "\n"
		}
		return "\n\n"
	}
	reseed := func(i int) *core.Component {
		base := corpus.Components()[edited]
		return &core.Component{Name: base.Name, Source: base.Source + rev(i), Params: base.Params}
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			comps := corpus.Components()
			comps[edited] = reseed(i)
			b.StartTimer()
			analyzeAllCorpus(b, comps)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		sess, err := core.NewSession(corpus.Components(), corpus.Scenarios(),
			core.Options{Mode: taint.Intra}, sched.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			comp := reseed(i)
			b.StartTimer()
			sess.Invalidate(comp)
			outs, err := sess.Run()
			if err != nil {
				b.Fatal(err)
			}
			assertCorpusShape(b, outs)
		}
	})
}

// conHandleCkUnion is the extraction stage every sweep app starts
// with: run all Table-5 scenarios and union the dependency sets.
func conHandleCkUnion(b *testing.B, comps map[string]*core.Component) *depmodel.Set {
	b.Helper()
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{},
		sched.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return core.Union(outs)
}

// BenchmarkConHandleCkExtractColdVsWarm measures the memo layer's
// effect on a sweep app's extraction stage: ConHandleCk re-derives the
// corpus dependency union before sweeping, and with a shared component
// map that union comes entirely from cached taint runs. The sweep
// itself runs once outside the timer as a shape check (1 silent
// corruption, as in §4.3).
func BenchmarkConHandleCkExtractColdVsWarm(b *testing.B) {
	defer core.SetProgramCacheCapacity(core.SetProgramCacheCapacity(0))
	b.Run("cold", func(b *testing.B) {
		var union *depmodel.Set
		for i := 0; i < b.N; i++ {
			union = conHandleCkUnion(b, corpus.Components())
		}
		b.StopTimer()
		rep := conhandleck.RunParallel(union, sched.Options{Workers: runtime.GOMAXPROCS(0)})
		if n := len(rep.Corruptions()); n != 1 {
			b.Fatalf("silent corruptions = %d, want 1", n)
		}
	})
	b.Run("warm", func(b *testing.B) {
		comps := corpus.Components()
		conHandleCkUnion(b, comps)
		b.ResetTimer()
		var union *depmodel.Set
		for i := 0; i < b.N; i++ {
			union = conHandleCkUnion(b, comps)
		}
		b.StopTimer()
		rep := conhandleck.RunParallel(union, sched.Options{Workers: runtime.GOMAXPROCS(0)})
		if n := len(rep.Corruptions()); n != 1 {
			b.Fatalf("silent corruptions = %d, want 1", n)
		}
	})
}
