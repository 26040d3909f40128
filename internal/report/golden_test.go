package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fsdep/internal/depmodel"
	"fsdep/internal/taint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExtractionGolden pins the exact JSON the analyzer emits for the
// full extraction — any change to the frontend, taint engine,
// derivation rules, or corpus shows up as a diff here.
func TestExtractionGolden(t *testing.T) {
	res := runTable5(t, taint.Intra)
	file := &depmodel.File{
		Ecosystem:    "ext4",
		Scenario:     "all-scenarios",
		Dependencies: res.Union.Deps.Sorted(),
	}
	got, err := file.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "deps_golden.json")
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
		t.Errorf("extraction JSON drifted from golden (%d vs %d bytes); run with -update after verifying the change",
			len(got), len(want))
	}
}
