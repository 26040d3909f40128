// Parallel-engine integration tests: the hard guarantee of the
// execution engine is that any worker count produces byte-identical
// output to a sequential run — over the real corpus, not just unit
// fixtures.
package fsdep

import (
	"bytes"
	"reflect"
	"testing"

	"fsdep/internal/conbugck"
	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/report"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// corpusJSON runs AnalyzeAll over every Table-5 scenario with the
// given worker count and encodes each result as the analyzer's JSON
// document, in insertion order.
func corpusJSON(t *testing.T, workers int) [][]byte {
	t.Helper()
	comps := corpus.Components()
	scenarios := corpus.Scenarios()
	outs, err := core.AnalyzeAll(comps, scenarios, core.Options{Mode: taint.Intra},
		sched.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
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

// TestAnalyzeAllCorpusDeterministic: 8 workers must produce
// byte-identical depmodel JSON to 1 worker for every scenario.
func TestAnalyzeAllCorpusDeterministic(t *testing.T) {
	seq := corpusJSON(t, 1)
	par := corpusJSON(t, 8)
	if len(seq) != len(par) {
		t.Fatalf("scenario counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Errorf("scenario %d: parallel JSON differs from sequential", i)
		}
	}
}

// TestAnalyzeCorpusRepeatable: five fresh sequential runs of the same
// scenario must emit byte-identical JSON (the CanonOf-order bug made
// CCD evidence drift between runs).
func TestAnalyzeCorpusRepeatable(t *testing.T) {
	var first [][]byte
	for i := 0; i < 5; i++ {
		blobs := corpusJSON(t, 1)
		if first == nil {
			first = blobs
			continue
		}
		for j := range blobs {
			if !bytes.Equal(first[j], blobs[j]) {
				t.Fatalf("run %d scenario %d differs from run 1", i+1, j)
			}
		}
	}
}

// TestTable5WorkerParity: the rendered evaluation table must not
// depend on the worker count.
func TestTable5WorkerParity(t *testing.T) {
	var seq, par bytes.Buffer
	for _, run := range []struct {
		w       *bytes.Buffer
		workers int
	}{{&seq, 1}, {&par, 8}} {
		res, err := report.RunTable5Opts(corpus.Components(), core.Options{Mode: taint.Intra}, sched.Options{Workers: run.workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Render(run.w); err != nil {
			t.Fatal(err)
		}
	}
	if seq.String() != par.String() {
		t.Fatalf("Table 5 differs:\n%s\n---\n%s", seq.String(), par.String())
	}
}

// TestConHandleCkParallelParity: the violation sweep must produce the
// identical report for any worker count, including the single
// Figure-1 silent corruption.
func TestConHandleCkParallelParity(t *testing.T) {
	outs, err := core.AnalyzeAll(corpus.Components(), corpus.Scenarios(), core.Options{},
		sched.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	union := core.Union(outs)
	seq := conhandleck.RunParallel(union, sched.Sequential())
	par := conhandleck.RunParallel(union, sched.Options{Workers: 8})
	if !reflect.DeepEqual(seq.Trials, par.Trials) {
		t.Fatalf("trials differ:\nseq: %+v\npar: %+v", seq.Trials, par.Trials)
	}
	if !reflect.DeepEqual(seq.Counts, par.Counts) {
		t.Fatalf("counts differ: %v vs %v", seq.Counts, par.Counts)
	}
	if n := len(par.Corruptions()); n != 1 {
		t.Fatalf("silent corruptions = %d, want 1", n)
	}
}

// TestConBugCkParallelParity: pipeline execution and coverage
// accounting must not depend on the worker count.
func TestConBugCkParallelParity(t *testing.T) {
	outs, err := core.AnalyzeAll(corpus.Components(), corpus.Scenarios(), core.Options{},
		sched.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	union := core.Union(outs)
	plan := conbugck.NewGenerator(union, 42).Plan(12)
	planAgain := conbugck.NewGenerator(union, 42).Plan(12)
	if !reflect.DeepEqual(plan, planAgain) {
		t.Fatal("generator plans are not reproducible for the same seed")
	}
	seq := conbugck.ExecuteParallel(plan, sched.Sequential())
	par := conbugck.ExecuteParallel(plan, sched.Options{Workers: 8})
	if seq.Shallow != par.Shallow || seq.Deep != par.Deep {
		t.Fatalf("tallies differ: seq %d/%d, par %d/%d", seq.Shallow, seq.Deep, par.Shallow, par.Deep)
	}
	if !reflect.DeepEqual(seq.ParamsTouched, par.ParamsTouched) {
		t.Fatalf("coverage differs: %v vs %v", seq.ParamsTouched, par.ParamsTouched)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Config.Label != p.Config.Label || s.ShallowReject != p.ShallowReject ||
			s.DeepFailure != p.DeepFailure {
			t.Fatalf("result %d differs: %+v vs %+v", i, s, p)
		}
	}
}
