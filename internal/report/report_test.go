package report

import (
	"bytes"
	"strings"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// runTable5 is a fresh, storeless, sequential Table-5 run.
func runTable5(t *testing.T, mode taint.Mode) *Table5Result {
	t.Helper()
	res, err := RunTable5Opts(corpus.Components(), core.Options{Mode: mode}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderAll renders every paper table from a fresh, storeless,
// sequential run.
func renderAll(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := AllOpts(&buf, corpus.Components(), core.Options{Mode: taint.Intra}, sched.Sequential()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTable5MatchesPaper(t *testing.T) {
	res := runTable5(t, taint.Intra)
	type cells struct{ sd, sdFP, cpd, cpdFP, ccd, ccdFP int }
	want := map[string]cells{
		"mke2fs-mount-ext4":                  {31, 0, 24, 1, 0, 0},
		"mke2fs-mount-ext4-e4defrag":         {31, 0, 24, 0, 0, 0},
		"mke2fs-mount-ext4-umount-resize2fs": {32, 3, 26, 0, 6, 1},
		"mke2fs-mount-ext4-umount-e2fsck":    {32, 0, 26, 0, 0, 0},
	}
	for _, row := range res.Rows {
		w, ok := want[row.Scenario]
		if !ok {
			t.Errorf("unexpected scenario %q", row.Scenario)
			continue
		}
		got := cells{row.SD.Extracted, row.SD.FP, row.CPD.Extracted, row.CPD.FP,
			row.CCD.Extracted, row.CCD.FP}
		if got != w {
			t.Errorf("%s = %+v, want %+v", row.Scenario, got, w)
		}
	}
	tu := res.TotalUnique
	if tu.SD.Extracted != 32 || tu.SD.FP != 3 ||
		tu.CPD.Extracted != 26 || tu.CPD.FP != 1 ||
		tu.CCD.Extracted != 6 || tu.CCD.FP != 1 {
		t.Errorf("total unique = %+v", tu)
	}
	if res.TotalExtracted() != 64 {
		t.Errorf("headline extracted = %d, want 64", res.TotalExtracted())
	}
	if res.TotalFP() != 5 {
		t.Errorf("headline FP = %d, want 5", res.TotalFP())
	}
	if r := res.FPRate(); r < 7.7 || r > 7.9 {
		t.Errorf("FP rate = %.2f%%, want ~7.8%%", r)
	}
}

func TestTable5Deterministic(t *testing.T) {
	a := runTable5(t, taint.Intra)
	b := runTable5(t, taint.Intra)
	var bufA, bufB bytes.Buffer
	if err := a.Render(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("Table 5 rendering is not deterministic")
	}
}

func TestInterProceduralExtractsMore(t *testing.T) {
	// The paper expects more dependencies, especially CCD, once
	// inter-procedural analysis lands (§4.3, §6). The extension must
	// never extract fewer.
	intra := runTable5(t, taint.Intra)
	inter := runTable5(t, taint.Inter)
	if inter.Union.Deps.Len() < intra.Union.Deps.Len() {
		t.Errorf("inter-procedural union %d < intra %d",
			inter.Union.Deps.Len(), intra.Union.Deps.Len())
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{">85", "29 (< 34.1%)", "6 (< 17.1%)", "7 (< 46.7%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	out := string(renderAll(t))
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"mke2fs", "xfstest", "Total Unique"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTable6SharedCompsReusesTaintCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash/fault sweep")
	}
	// One component map across tables: the Table-6 extraction must be
	// served entirely from the taint cache Table 5 populated.
	comps := corpus.Components()
	sopts := sched.Options{Workers: 4}
	if _, err := RunTable5Opts(comps, core.Options{Mode: taint.Intra}, sopts); err != nil {
		t.Fatal(err)
	}
	before := core.TotalCacheStats(comps)
	var viaShared bytes.Buffer
	if err := Table6Opts(&viaShared, comps, core.Options{}, sopts); err != nil {
		t.Fatal(err)
	}
	after := core.TotalCacheStats(comps)
	if after.Misses != before.Misses {
		t.Errorf("Table-6 extraction missed the cache: %d misses before, %d after",
			before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("Table-6 extraction recorded no cache hits: %d before, %d after",
			before.Hits, after.Hits)
	}

	// Extraction-driven scenario selection must not change the table:
	// every catalog dependency is extracted by the corpus run.
	var viaFresh bytes.Buffer
	if err := Table6Opts(&viaFresh, corpus.Components(), core.Options{}, sopts); err != nil {
		t.Fatal(err)
	}
	if viaShared.String() != viaFresh.String() {
		t.Error("Table 6 differs between shared and fresh component maps")
	}
}
