// Corpus-level memo-cache guarantees: reusing one Components map
// across scenarios and repeated AnalyzeAll calls (the warm path every
// sweep app now takes) must produce depmodel JSON byte-identical to a
// fresh sequential extraction, for any -parallel value — and must
// actually reuse taint runs.
package fsdep

import (
	"bytes"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// encodeAll encodes every scenario result as the analyzer's JSON
// document.
func encodeAll(t *testing.T, outs []*core.Result) [][]byte {
	t.Helper()
	blobs := make([][]byte, len(outs))
	for i, res := range outs {
		f := &depmodel.File{
			Ecosystem:    "ext4",
			Scenario:     res.Scenario.Name,
			Dependencies: res.Deps.Deps(),
		}
		blob, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	return blobs
}

// TestCachedAnalyzeAllByteIdentical: the cold baseline uses fresh
// components per run (no possible reuse); the warm runs share one
// Components map so every repeated (component, funcs, mode) pair hits
// the memo. Output must not change by a single byte, at any worker
// count, on either the first (cache-filling) or later (cache-hitting)
// passes.
func TestCachedAnalyzeAllByteIdentical(t *testing.T) {
	scenarios := corpus.Scenarios()
	baseline := corpusJSON(t, 1) // fresh components, sequential

	shared := corpus.Components()
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{1, 2, 8} {
			outs, err := core.AnalyzeAll(shared, scenarios, core.Options{Mode: taint.Intra},
				sched.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			blobs := encodeAll(t, outs)
			for i := range baseline {
				if !bytes.Equal(baseline[i], blobs[i]) {
					t.Errorf("pass %d, workers=%d, scenario %d: cached JSON differs from fresh sequential run",
						pass, workers, i)
				}
			}
		}
	}
	stats := core.TotalCacheStats(shared)
	if stats.Hits == 0 {
		t.Error("no taint-cache reuse across the corpus scenario list")
	}
	// The corpus reuses (mount, ext4, mke2fs) selections across the
	// four Table-5 scenarios: 15 component-analyses are requested per
	// pass, but only the 9 distinct signatures may ever run the engine,
	// no matter how many passes or workers.
	if want := uint64(9); stats.Misses != want {
		t.Errorf("taint engine ran %d times, want %d distinct signatures", stats.Misses, want)
	}
}

// TestCachedSweepAppUnionIdentical: the extraction union feeding the
// sweep apps (ConHandleCk/ConBugCk) must be identical whether built
// cold or from a warmed cache.
func TestCachedSweepAppUnionIdentical(t *testing.T) {
	build := func(comps map[string]*core.Component) *depmodel.Set {
		outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{},
			sched.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return core.Union(outs)
	}
	cold := build(corpus.Components())

	shared := corpus.Components()
	build(shared)         // warm the cache
	warm := build(shared) // fully cached pass
	coldJSON, err := cold.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warm.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("cached sweep-app union differs from cold union")
	}
	if stats := core.TotalCacheStats(shared); stats.Hits == 0 {
		t.Error("warmed sweep-app extraction did not hit the cache")
	}
}
