package conbugck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fsdep/internal/checkpoint"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/sched"
	"fsdep/internal/testsuite"
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

func TestGeneratedConfigsPassValidation(t *testing.T) {
	// The whole point of ConBugCk: dependency-respecting configs
	// never die on shallow validation, so the workload drives deep.
	g := NewGenerator(extractedDeps(t), 42)
	cfgs := g.Plan(20)
	if len(cfgs) != 20 {
		t.Fatalf("planned %d configs", len(cfgs))
	}
	rep := ExecuteParallel(cfgs, sched.Sequential())
	if rep.Shallow != 0 {
		for _, r := range rep.Results {
			if r.ShallowReject {
				t.Logf("shallow reject: %s: %v", r.Config.Label, r.Err)
			}
		}
		t.Fatalf("shallow rejections = %d, want 0", rep.Shallow)
	}
	if rep.Deep != 0 {
		for _, r := range rep.Results {
			if r.DeepFailure {
				t.Logf("deep failure: %s: %v", r.Config.Label, r.Err)
			}
		}
		t.Fatalf("deep failures = %d, want 0 on the fixed ecosystem", rep.Deep)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	deps := extractedDeps(t)
	a := NewGenerator(deps, 7).Plan(10)
	b := NewGenerator(deps, 7).Plan(10)
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatalf("config %d differs for same seed: %q vs %q", i, a[i].Label, b[i].Label)
		}
	}
	c := NewGenerator(deps, 8).Plan(10)
	same := true
	for i := range a {
		if a[i].Label != c[i].Label {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical plans")
	}
}

func TestRangeOfUsesExtractedBounds(t *testing.T) {
	deps := depmodel.NewSet()
	min, max := int64(2048), int64(8192)
	deps.Add(depmodel.Dependency{
		Kind:       depmodel.SDValueRange,
		Source:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Min: &min, Max: &max},
	})
	g := NewGenerator(deps, 1)
	lo, hi := g.rangeOf("mke2fs", "blocksize", 1024, 65536)
	if lo != 2048 || hi != 8192 {
		t.Errorf("range = [%d,%d], want [2048,8192]", lo, hi)
	}
	lo, hi = g.rangeOf("mke2fs", "unknown", 1, 9)
	if lo != 1 || hi != 9 {
		t.Errorf("fallback range = [%d,%d]", lo, hi)
	}
}

func TestCoverageGainOverXfstest(t *testing.T) {
	g := NewGenerator(extractedDeps(t), 42)
	rep := ExecuteParallel(g.Plan(20), sched.Sequential())
	baseline := testsuite.Xfstest().UsedParams()
	base, enhanced, newParams := rep.CoverageGain(baseline)
	if base != len(baseline) {
		t.Errorf("baseline count = %d", base)
	}
	if enhanced <= base {
		t.Errorf("no coverage gain: %d -> %d (new: %v)", base, enhanced, newParams)
	}
	if len(newParams) == 0 {
		t.Error("no new parameters exercised")
	}
}

func TestConfigsRespectConflicts(t *testing.T) {
	// No generated config may enable both meta_bg and resize_inode.
	g := NewGenerator(extractedDeps(t), 3)
	for _, cfg := range g.Plan(50) {
		hasMetaBG, clearsResize := false, false
		for _, f := range cfg.Mkfs.Features {
			if f == "meta_bg" {
				hasMetaBG = true
			}
			if f == "^resize_inode" {
				clearsResize = true
			}
		}
		if hasMetaBG && !clearsResize {
			t.Errorf("config enables meta_bg without clearing resize_inode: %v",
				cfg.Mkfs.Features)
		}
	}
}

// renderReport serializes everything cmd/conbugck derives from a
// report, for byte-level comparison across resumed runs.
func renderReport(rep *Report) string {
	var b strings.Builder
	for _, r := range rep.Results {
		errStr := ""
		if r.Err != nil {
			errStr = r.Err.Error()
		}
		fmt.Fprintf(&b, "%s|%v|%v|%s\n", r.Config.Label, r.ShallowReject, r.DeepFailure, errStr)
	}
	fmt.Fprintf(&b, "shallow:%d deep:%d\n", rep.Shallow, rep.Deep)
	touched := make([]string, 0, len(rep.ParamsTouched))
	for p := range rep.ParamsTouched {
		touched = append(touched, p)
	}
	sort.Strings(touched)
	fmt.Fprintf(&b, "touched:%v\n", touched)
	return b.String()
}

func TestExecuteCheckpointResumeByteIdentical(t *testing.T) {
	cfgs := NewGenerator(extractedDeps(t), 42).Plan(12)
	sopts := sched.Options{Workers: 4}
	want := renderReport(ExecuteParallel(cfgs, sopts))

	path := filepath.Join(t.TempDir(), "chk.jsonl")
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteCheckpointed(cfgs, sopts, j)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(rep); got != want {
		t.Fatalf("checkpointed run differs from plain run:\n%s\nvs\n%s", got, want)
	}
	replayed, recorded := j.Stats()
	if replayed != 0 || recorded != len(cfgs) {
		t.Fatalf("stats = %d replayed / %d recorded, want 0/%d", replayed, recorded, len(cfgs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill mid-sweep: keep half the journal plus a torn fragment, then
	// resume and demand byte-identity.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := len(cfgs) / 2
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
	rep2, err := ExecuteCheckpointed(cfgs, sopts, j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(rep2); got != want {
		t.Fatalf("resumed run differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	replayed, recorded = j2.Stats()
	if replayed != keep {
		t.Errorf("resume replayed %d trials, want %d", replayed, keep)
	}
	if replayed+recorded != len(cfgs) {
		t.Errorf("replayed %d + recorded %d != %d configs", replayed, recorded, len(cfgs))
	}
}
