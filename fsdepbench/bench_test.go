package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func goBuild(t *testing.T, dir, out, pkg string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
}

// TestSmoke runs every workload of BENCHMARK.json for a handful of ops,
// untraced and traced, and checks that each run prints exactly the
// metrics BENCHMARK.json names, with their units, and fails no op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fsdepd and runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, daemon := filepath.Join(dir, "fsdepbench"), filepath.Join(dir, "fsdepd")
	goBuild(t, ".", bench, ".")
	goBuild(t, "..", daemon, "./cmd/fsdepd")

	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "--workload", w.Name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--smoke", "--root", "..", "--fsdepd", daemon,
					"--work", filepath.Join(dir, "work"))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out)
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.Bytes())
				}
				if fr, ok := res.Metrics["fail_ratio"]; ok && fr.Value != 0 {
					t.Errorf("fail_ratio = %v, want 0", fr.Value)
				}
			})
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tailOf(xs); ok {
		t.Error("99 samples support no tail of p90 or above with 10 beyond")
	}
	xs = append(xs, 100, 101)
	tl, ok := tailOf(xs)
	if !ok || tl.Percentile != 90 || tl.Beyond < 10 {
		t.Errorf("tail of 101 samples = %+v, %v; want p90 with at least 10 beyond", tl, ok)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %v, want 40 (10..40 and 90..100)", got)
	}
}

func TestScheduleIsSeededAndUploadsUnique(t *testing.T) {
	a, b := schedule(3, 400, 2*time.Second), schedule(3, 400, 2*time.Second)
	if len(a) != 400 || len(b) != 400 {
		t.Fatalf("schedule lengths %d, %d; want 400", len(a), len(b))
	}
	uploads := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		if a[i].kind == reqUpload {
			if uploads[a[i].n] {
				t.Errorf("upload %d repeats", a[i].n)
			}
			uploads[a[i].n] = true
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Errorf("request %d is due before request %d", i, i-1)
		}
	}
	if len(uploads) != 20 {
		t.Errorf("%d uploads in 400 requests, want one per 20", len(uploads))
	}
	if c := schedule(4, 400, 2*time.Second); c[len(c)-1].due == a[len(a)-1].due {
		t.Error("two seeds gave the same arrivals")
	}
	if d := a[len(a)-1].due; d < time.Second || d >= 2*time.Second {
		t.Errorf("400 arrivals over 2s end at %v, want within the last second", d)
	}
}
