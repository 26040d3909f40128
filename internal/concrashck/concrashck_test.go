package concrashck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fsdep/internal/checkpoint"
	"fsdep/internal/depmodel"
	"fsdep/internal/sched"
)

func figure1Pair() []Scenario {
	all := Scenarios()
	var out []Scenario
	for _, sc := range all {
		if sc.Name == "figure1-sparse_super2-buggy" || sc.Name == "figure1-sparse_super2-fixed" {
			out = append(out, sc)
		}
	}
	return out
}

// TestFigure1UnderFaultInjection is the subsystem's acceptance test:
// sweeping the Figure-1 dependency violation across crash points, the
// buggy resize2fs must produce at least one silent-corruption verdict,
// and at every such fault point the fixed resize2fs must come out
// clean or detected-and-repaired.
func TestFigure1UnderFaultInjection(t *testing.T) {
	rep, err := SweepParallel(figure1Pair(), Options{
		MaxPointsPerMode: 12,
		Modes:            []FaultMode{FaultCrash},
	}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}

	fixed := make(map[string]Verdict)
	for _, tr := range rep.Trials {
		if tr.Scenario == "figure1-sparse_super2-fixed" {
			fixed[fmt.Sprintf("%s@%d", tr.Mode, tr.Point)] = tr.Verdict
		}
	}

	var silent []Trial
	for _, tr := range rep.Trials {
		if tr.Scenario == "figure1-sparse_super2-buggy" && tr.Verdict == VSilentCorruption {
			silent = append(silent, tr)
		}
	}
	if len(silent) == 0 {
		t.Fatal("buggy resize2fs produced no silent corruption across the sweep")
	}
	for _, tr := range silent {
		key := fmt.Sprintf("%s@%d", tr.Mode, tr.Point)
		v, ok := fixed[key]
		if !ok {
			t.Errorf("no fixed-resize2fs trial for fault point %s", key)
			continue
		}
		if v != VClean && v != VRepaired {
			t.Errorf("fault point %s: buggy = silent-corruption but fixed = %s, want clean or detected-repaired", key, v)
		}
	}

	if row, ok := rep.RowFor("figure1-sparse_super2-fixed"); !ok || row.Silent != 0 {
		t.Errorf("fixed resize2fs row = %+v, want zero silent corruptions", row)
	}
	if row, ok := rep.RowFor("figure1-sparse_super2-buggy"); !ok || row.Repaired == 0 {
		t.Errorf("buggy row = %+v, want some crash points detected and repaired by forced fsck", row)
	}
}

// TestSweepByteIdenticalAcrossWorkers renders the same sweep five times
// under different -parallel settings; every byte must match.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	scs := figure1Pair()
	opts := Options{
		Seed:             99,
		MaxPointsPerMode: 4,
		Modes:            []FaultMode{FaultCrash, FaultTorn},
	}
	var want []byte
	for _, workers := range []int{1, 2, 3, 4, 8} {
		rep, err := SweepParallel(scs, opts, sched.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatalf("workers=%d: render: %v", workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s", workers, buf.Bytes(), want)
		}
	}
}

// TestAllScenariosPrepareAndSurviveFaultFreeRun: every catalog entry
// must build its snapshot and complete a fault-free resize stage — the
// enumeration counters come from that reference pass.
func TestAllScenariosPrepareAndSurviveFaultFreeRun(t *testing.T) {
	for _, sc := range Scenarios() {
		p, err := prepare(sc)
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		if p.stageErr != "" {
			t.Errorf("%s: fault-free resize stage failed: %s", sc.Name, p.stageErr)
		}
		if p.writeOps == 0 || p.readOps == 0 {
			t.Errorf("%s: reference pass counted %d writes, %d reads", sc.Name, p.writeOps, p.readOps)
		}
		if p.backupBlk == 0 {
			t.Errorf("%s: no backup superblock found for -b escalation", sc.Name)
		}
	}
}

func TestSamplePoints(t *testing.T) {
	if got := samplePoints(5, 16); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Errorf("samplePoints(5,16) = %v, want 1..5", got)
	}
	got := samplePoints(1000, 16)
	if len(got) > 16 {
		t.Fatalf("samplePoints(1000,16) returned %d points", len(got))
	}
	if got[0] != 1 || got[len(got)-1] != 1000 {
		t.Errorf("samplePoints(1000,16) endpoints = %d, %d; want 1, 1000", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("samplePoints not strictly increasing: %v", got)
		}
	}
	if samplePoints(0, 16) != nil || samplePoints(10, 0) != nil {
		t.Error("degenerate samplePoints inputs should return nil")
	}
}

// TestVerdictCoverage: a full sweep over the Figure-1 pair with every
// fault family must exercise clean, repaired, and silent verdicts.
func TestVerdictCoverage(t *testing.T) {
	rep, err := SweepParallel(figure1Pair(), Options{MaxPointsPerMode: 6}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Verdict]int)
	for _, tr := range rep.Trials {
		seen[tr.Verdict]++
	}
	for _, v := range []Verdict{VClean, VRepaired, VSilentCorruption} {
		if seen[v] == 0 {
			t.Errorf("sweep never produced verdict %s (saw %v)", v, seen)
		}
	}
	if len(rep.Silent()) != seen[VSilentCorruption] {
		t.Errorf("Silent() returned %d trials, counted %d", len(rep.Silent()), seen[VSilentCorruption])
	}
}

func BenchmarkConCrashCk(b *testing.B) {
	scs := figure1Pair()[:1]
	opts := Options{MaxPointsPerMode: 3, Modes: []FaultMode{FaultCrash}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepParallel(scs, opts, sched.Sequential()); err != nil {
			b.Fatal(err)
		}
	}
}

// renderBytes renders a report for byte-level comparison.
func renderBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.Bytes()
}

// TestSweepCheckpointResumeByteIdentical is the resumability acceptance
// test: a sweep killed mid-run (journal cut in half, with a torn tail)
// and restarted with the journal produces byte-identical output to an
// uninterrupted run, replaying the journaled half and re-running only
// the remainder.
func TestSweepCheckpointResumeByteIdentical(t *testing.T) {
	scs := figure1Pair()
	opts := Options{
		Seed:             7,
		MaxPointsPerMode: 4,
		Modes:            []FaultMode{FaultCrash, FaultReadErr},
	}
	ref, err := SweepParallel(scs, opts, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	want := renderBytes(t, ref)

	// Full checkpointed run: same bytes, everything recorded.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SweepCheckpointed(scs, opts, sched.Options{Workers: 4}, j)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderBytes(t, full); !bytes.Equal(got, want) {
		t.Fatalf("checkpointed run differs from plain run:\n%s\n--- vs ---\n%s", got, want)
	}
	replayed, recorded := j.Stats()
	total := len(full.Trials)
	if replayed != 0 || recorded != total {
		t.Fatalf("full run journaled %d/%d (replayed/recorded), want 0/%d", replayed, recorded, total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill the sweep mid-run: keep half the journal lines and leave a
	// torn fragment of the next one, as a SIGKILL mid-append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := total / 2
	cut := bytes.Join(lines[:keep], nil)
	cut = append(cut, lines[keep][:len(lines[keep])/2]...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: replays the surviving half, re-runs the rest, and the
	// rendered report is byte-identical to the uninterrupted run.
	j2, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, err := SweepCheckpointed(scs, opts, sched.Options{Workers: 4}, j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderBytes(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed run differs from uninterrupted run:\n%s\n--- vs ---\n%s", got, want)
	}
	replayed, recorded = j2.Stats()
	if replayed != keep || replayed+recorded != total {
		t.Fatalf("resume journaled %d replayed + %d recorded, want %d + %d", replayed, recorded, keep, total-keep)
	}
}

// TestTransientReadRetry: with retries enabled a transient read error
// disappears (the stage succeeds on the re-run and the trial reports
// how many retries it took); with retries disabled the same fault
// point surfaces as a failed stage.
func TestTransientReadRetry(t *testing.T) {
	scs := figure1Pair()[:1]
	opts := Options{MaxPointsPerMode: 4, Modes: []FaultMode{FaultReadErr}}

	rep, err := SweepParallel(scs, opts, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, tr := range rep.Trials {
		if tr.Mode != FaultReadErr {
			continue
		}
		if tr.Retries > 0 {
			retried++
			if tr.StageErr != "" {
				t.Errorf("point %d: stage still failed after %d retries: %s", tr.Point, tr.Retries, tr.StageErr)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no read-err trial reported a retry")
	}

	noRetry, err := SweepParallel(scs, Options{
		MaxPointsPerMode: 4, Modes: []FaultMode{FaultReadErr}, ReadRetries: -1,
	}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, tr := range noRetry.Trials {
		if tr.Mode == FaultReadErr && tr.StageErr != "" {
			if tr.Retries != 0 {
				t.Errorf("point %d: retries disabled but Retries = %d", tr.Point, tr.Retries)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("retries disabled but no read-err trial failed its stage")
	}
}

// TestScenariosForFiltersByExtraction: only scenarios whose violated
// dependency was actually extracted run, controls always run, nil
// keeps the catalog.
func TestScenariosForFiltersByExtraction(t *testing.T) {
	if got := ScenariosFor(nil); len(got) != len(Scenarios()) {
		t.Fatalf("nil deps: %d scenarios, want the full catalog", len(got))
	}
	deps := depmodel.NewSet()
	deps.Add(depmodel.Dependency{
		Kind:   depmodel.CCDBehavioral,
		Source: depmodel.ParamRef{Component: "resize2fs"},
		Target: depmodel.ParamRef{Component: "mke2fs", Param: "sparse_super2"},
		Constraint: depmodel.Constraint{
			Relation: "behavioral", Expr: "figure 1",
		},
	})
	got := ScenariosFor(deps)
	var names []string
	for _, sc := range got {
		names = append(names, sc.Name)
	}
	want := []string{"figure1-sparse_super2-buggy", "figure1-sparse_super2-fixed", "default-control"}
	if len(names) != len(want) {
		t.Fatalf("filtered scenarios = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("filtered scenarios = %v, want %v", names, want)
		}
	}
}
