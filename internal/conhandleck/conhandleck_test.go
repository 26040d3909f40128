package conhandleck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdep/internal/checkpoint"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/sched"
)

func extractedDeps(t *testing.T) *depmodel.Set {
	t.Helper()
	comps := corpus.Components()
	union := depmodel.NewSet()
	for _, sc := range corpus.Scenarios() {
		res, err := core.Analyze(comps, sc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		union.AddAll(res.Deps.Deps())
	}
	return union
}

func TestExactlyOneSilentCorruption(t *testing.T) {
	rep := RunParallel(nil, sched.Sequential()) // all drivers
	bad := rep.Corruptions()
	if len(bad) != 1 {
		for _, tr := range rep.Trials {
			t.Logf("%-60s %s", tr.Desc, tr.Outcome)
		}
		t.Fatalf("silent corruptions = %d, want 1 (paper §4.3)", len(bad))
	}
	if !strings.Contains(bad[0].Desc, "sparse_super2") {
		t.Errorf("unexpected corruption case: %+v", bad[0])
	}
}

func TestMostViolationsHandledGracefully(t *testing.T) {
	rep := RunParallel(nil, sched.Sequential())
	if rep.Counts[Rejected] < 10 {
		t.Errorf("rejected = %d, expected most violations to be refused", rep.Counts[Rejected])
	}
	total := 0
	for _, n := range rep.Counts {
		total += n
	}
	if total != len(rep.Trials) {
		t.Errorf("counts %v do not sum to %d trials", rep.Counts, len(rep.Trials))
	}
}

func TestDriversMatchExtractedDependencies(t *testing.T) {
	// Every driver must violate a dependency the analyzer actually
	// extracts — ConHandleCk is driven by the extraction output.
	deps := extractedDeps(t)
	for _, d := range drivers() {
		if d.fromStudy {
			continue // sourced from the bugdb study, not extraction
		}
		if !deps.ContainsKey(d.depKey) {
			t.Errorf("driver targets unextracted dependency %q", d.depKey)
		}
	}
}

func TestRunFiltersByDependencySet(t *testing.T) {
	// With an empty dependency set nothing runs.
	empty := depmodel.NewSet()
	rep := RunParallel(empty, sched.Sequential())
	if len(rep.Trials) != 2 {
		// Only the two study-sourced drivers run without extraction.
		t.Errorf("trials = %d with empty dependency set, want 2", len(rep.Trials))
	}
	full := RunParallel(extractedDeps(t), sched.Sequential())
	if len(full.Trials) != len(drivers()) {
		t.Errorf("trials = %d, want %d", len(full.Trials), len(drivers()))
	}
}

func TestFigure1TrialDetails(t *testing.T) {
	rep := RunParallel(nil, sched.Sequential())
	for _, tr := range rep.Trials {
		if tr.Outcome == SilentCorruption {
			if !strings.Contains(tr.Detail, "audit problems") {
				t.Errorf("corruption detail lacks audit evidence: %q", tr.Detail)
			}
		}
	}
}

// renderTrials serializes a report the way cmd/conhandleck prints it,
// for byte-level comparison.
func renderTrials(rep *Report) string {
	var b strings.Builder
	for _, tr := range rep.Trials {
		fmt.Fprintf(&b, "%s|%s|%s|%s\n", tr.DepKey, tr.Desc, tr.Outcome, tr.Detail)
	}
	fmt.Fprintf(&b, "counts:%d/%d/%d\n",
		rep.Counts[Rejected], rep.Counts[Benign], rep.Counts[SilentCorruption])
	return b.String()
}

func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	deps := extractedDeps(t)
	sopts := sched.Options{Workers: 4}
	want := renderTrials(RunParallel(deps, sopts))

	// Full checkpointed run: identical output, everything recorded.
	path := filepath.Join(t.TempDir(), "chk.jsonl")
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCheckpointed(deps, sopts, j)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTrials(rep); got != want {
		t.Fatalf("checkpointed run differs from plain run:\n%s\nvs\n%s", got, want)
	}
	replayed, recorded := j.Stats()
	if replayed != 0 || recorded != len(rep.Trials) {
		t.Fatalf("stats = %d replayed / %d recorded, want 0/%d", replayed, recorded, len(rep.Trials))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-sweep: keep half the journal plus a torn
	// fragment of the next line, then resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := len(rep.Trials) / 2
	cut := bytes.Join(lines[:keep], nil)
	cut = append(cut, lines[keep][:len(lines[keep])/2]...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep2, err := RunCheckpointed(deps, sopts, j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTrials(rep2); got != want {
		t.Fatalf("resumed run differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	replayed, recorded = j2.Stats()
	if replayed != keep {
		t.Errorf("resume replayed %d trials, want %d", replayed, keep)
	}
	if replayed+recorded != len(rep.Trials) {
		t.Errorf("replayed %d + recorded %d != %d trials", replayed, recorded, len(rep.Trials))
	}
}
