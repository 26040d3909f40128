package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAllGolden pins the complete stdout of report.AllOpts — every table,
// the figure reproductions, and the summary lines — byte for byte.
// Together with TestExtractionGolden this is the contract the
// allocation-free frontend must honor: faster compilation, identical
// output.
func TestAllGolden(t *testing.T) {
	got := renderAll(t)
	path := filepath.Join("testdata", "all_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report.AllOpts output drifted from golden (%d vs %d bytes); run with -update after verifying the change",
			len(got), len(want))
	}
}
