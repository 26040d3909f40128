// Package fsdep's benchmark harness regenerates every table and figure
// of the paper (see DESIGN.md §4 for the experiment index). Each
// benchmark both measures the cost of the experiment and asserts its
// headline shape, so `go test -bench=. -benchmem` doubles as the
// reproduction run.
package fsdep

import (
	"bytes"
	"io"
	"testing"

	"fsdep/internal/bugdb"
	"fsdep/internal/conbugck"
	"fsdep/internal/condocck"
	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/e2fsck"
	"fsdep/internal/e4defrag"
	"fsdep/internal/fscatalog"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
	"fsdep/internal/report"
	"fsdep/internal/resize2fs"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
	"fsdep/internal/testsuite"
)

// BenchmarkTable1Catalog regenerates Table 1 (configuration methods of
// eight file systems across four stages).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries := fscatalog.Catalog()
		if len(entries) != 8 {
			b.Fatalf("catalog rows = %d, want 8", len(entries))
		}
		for _, e := range entries {
			if !e.MultiStage() {
				b.Fatalf("%s is not multi-stage", e.FS)
			}
		}
		var buf bytes.Buffer
		if err := report.Table1(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Coverage regenerates Table 2 (test-suite parameter
// coverage: <34.1%, <17.1%, <46.7%).
func BenchmarkTable2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		covs := make([]testsuite.Coverage, 0, 3)
		for _, s := range testsuite.All() {
			covs = append(covs, s.Coverage())
		}
		if covs[0].Used != 29 || covs[1].Used != 6 || covs[2].Used != 7 {
			b.Fatalf("coverage = %+v", covs)
		}
		if covs[0].Percent > 34.2 || covs[1].Percent > 17.2 || covs[2].Percent > 46.8 {
			b.Fatalf("coverage percentages too high: %+v", covs)
		}
	}
}

// BenchmarkTable3BugStudy regenerates Table 3 (67 bugs, SD 100%,
// CPD 7.5%, CCD 97.0%).
func BenchmarkTable3BugStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := bugdb.Load()
		t := db.Table3Total()
		if t.Bugs != 67 || t.SD != 67 || t.CPD != 5 || t.CCD != 65 {
			b.Fatalf("table 3 total = %+v", t)
		}
	}
}

// BenchmarkTable4Taxonomy regenerates Table 4 (5/7 sub-categories
// observed, 132 critical dependencies).
func BenchmarkTable4Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := bugdb.Load()
		if db.TotalCriticalDeps() != 132 {
			b.Fatalf("critical deps = %d, want 132", db.TotalCriticalDeps())
		}
		exist := 0
		for _, r := range db.Table4() {
			if r.Exists {
				exist++
			}
		}
		if exist != 5 {
			b.Fatalf("observed sub-categories = %d, want 5", exist)
		}
	}
}

// BenchmarkTable5Extraction runs the full intra-procedural extraction
// over all four scenarios (the paper's 64 dependencies at 7.8% FP).
func BenchmarkTable5Extraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := report.RunTable5Opts(corpus.Components(), core.Options{Mode: taint.Intra}, sched.Sequential())
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalExtracted() != 64 || res.TotalFP() != 5 {
			b.Fatalf("extraction = %d deps, %d FP", res.TotalExtracted(), res.TotalFP())
		}
	}
}

// BenchmarkTable5SingleScenario isolates the resize scenario — the
// richest one (CCD extraction through the metadata bridge).
func BenchmarkTable5SingleScenario(b *testing.B) {
	comps := corpus.Components()
	var sc core.Scenario
	for _, s := range corpus.Scenarios() {
		if s.Name == corpus.ScenarioResize {
			sc = s
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(comps, sc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deps.CountByCategory()[depmodel.CCD] != 6 {
			b.Fatal("CCD extraction drifted")
		}
	}
}

// BenchmarkAblationInterProcedural runs the extraction with the
// inter-procedural extension (the paper's future work): it must never
// extract fewer dependencies than the intra prototype.
func BenchmarkAblationInterProcedural(b *testing.B) {
	intra, err := report.RunTable5Opts(corpus.Components(), core.Options{Mode: taint.Intra}, sched.Sequential())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inter, err := report.RunTable5Opts(corpus.Components(), core.Options{Mode: taint.Inter}, sched.Sequential())
		if err != nil {
			b.Fatal(err)
		}
		if inter.Union.Deps.Len() < intra.Union.Deps.Len() {
			b.Fatalf("inter %d < intra %d", inter.Union.Deps.Len(), intra.Union.Deps.Len())
		}
	}
}

// BenchmarkFigure1ResizeBug reproduces the Figure-1 corruption:
// sparse_super2 + expansion → incorrect free blocks, detected by the
// audit and repaired by e2fsck.
func BenchmarkFigure1ResizeBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev := fsim.NewMemDevice(16 << 20)
		res, err := mke2fs.Run(dev, mke2fs.Params{
			BlockSize: 1024, Features: []string{"sparse_super2"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := resize2fs.Run(dev, resize2fs.Options{
			Size: res.Fs.SB.BlocksCount + 8192,
		}); err != nil {
			b.Fatal(err)
		}
		fs, err := fsim.Open(dev)
		if err != nil {
			b.Fatal(err)
		}
		if probs := fs.Audit(); len(probs) == 0 {
			b.Fatal("Figure-1 corruption did not reproduce")
		}
		ck, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true})
		if err != nil || ck.ExitCode != e2fsck.ExitFixed {
			b.Fatalf("e2fsck repair failed: %v exit=%d", err, ck.ExitCode)
		}
	}
}

// BenchmarkFigure2Pipeline runs the four configuration stages of
// Figure 2 back to back: create (mke2fs), mount, online (e4defrag),
// offline (resize2fs + e2fsck).
func BenchmarkFigure2Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev := fsim.NewMemDevice(16 << 20)
		if _, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024}); err != nil {
			b.Fatal(err)
		}
		m, err := mountsim.Do(dev, mountsim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		f, err := m.Create(fsim.RootIno, "data")
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Write(f, bytes.Repeat([]byte{0xAB}, 8192)); err != nil {
			b.Fatal(err)
		}
		if _, err := e4defrag.Run(m, e4defrag.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := m.Unmount(); err != nil {
			b.Fatal(err)
		}
		fs, _ := fsim.Open(dev)
		if _, err := resize2fs.Run(dev, resize2fs.Options{
			Size: fs.SB.BlocksCount + 4096, FixedFreeBlocks: true,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// extractUnion is shared setup for the application benchmarks.
func extractUnion(b *testing.B) *depmodel.Set {
	b.Helper()
	comps := corpus.Components()
	union := depmodel.NewSet()
	for _, sc := range corpus.Scenarios() {
		res, err := core.Analyze(comps, sc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		union.AddAll(res.Deps.Deps())
	}
	return union
}

// BenchmarkConDocCk reproduces the 12 documentation issues of §4.3.
func BenchmarkConDocCk(b *testing.B) {
	union := extractUnion(b)
	trueDeps, _ := corpus.Score(union.Deps())
	comps := corpus.Components()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issues := condocck.Check(comps, trueDeps)
		if len(issues) != 12 {
			b.Fatalf("doc issues = %d, want 12", len(issues))
		}
	}
}

// BenchmarkConHandleCk reproduces the single bad-handling finding of
// §4.3 (resize2fs silently corrupting the file system).
func BenchmarkConHandleCk(b *testing.B) {
	union := extractUnion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := conhandleck.RunParallel(union, sched.Sequential())
		if n := len(rep.Corruptions()); n != 1 {
			b.Fatalf("silent corruptions = %d, want 1", n)
		}
	}
}

// BenchmarkConBugCk measures the dependency-respecting generator plus
// full pipeline execution for 10 configuration states.
func BenchmarkConBugCk(b *testing.B) {
	union := extractUnion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := conbugck.NewGenerator(union, 42)
		rep := conbugck.ExecuteParallel(gen.Plan(10), sched.Sequential())
		if rep.Shallow != 0 {
			b.Fatalf("shallow rejections = %d", rep.Shallow)
		}
	}
}

// BenchmarkAnalyzerFrontend isolates the mini-C frontend + IR + taint
// cost for the largest component. The compiled-program cache is
// disabled so every iteration pays the true lex+parse+lower cost.
func BenchmarkAnalyzerFrontend(b *testing.B) {
	defer core.SetProgramCacheCapacity(core.SetProgramCacheCapacity(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &core.Component{Name: "mke2fs", Source: corpus.Mke2fsSource}
		if _, err := c.Program(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFsimMkfs measures formatting a 16 MiB image.
func BenchmarkFsimMkfs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mke2fs.Run(fsim.NewMemDevice(16<<20), mke2fs.Params{BlockSize: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFsimAudit measures the full consistency audit.
func BenchmarkFsimAudit(b *testing.B) {
	dev := fsim.NewMemDevice(16 << 20)
	res, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if probs := res.Fs.Audit(); len(probs) != 0 {
			b.Fatal("clean fs audited dirty")
		}
	}
}

// BenchmarkFsimFileWrite measures writing a 64 KiB file through the
// allocator.
func BenchmarkFsimFileWrite(b *testing.B) {
	dev := fsim.NewMemDevice(32 << 20)
	res, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ino, err := res.Fs.CreateFile(fsim.RootIno, "bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Fs.WriteFile(ino, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportAll renders every table (the fsdep-report binary's
// hot path).
func BenchmarkReportAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.AllOpts(io.Discard, corpus.Components(), core.Options{Mode: taint.Intra}, sched.Sequential()); err != nil {
			b.Fatal(err)
		}
	}
}
