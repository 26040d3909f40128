package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"fsdep/internal/depstore"
	"fsdep/internal/sched"
)

// The store-test ecosystem: a metadata-bridge pair plus an independent
// component, under three scenarios, so both the per-component and the
// whole-scenario record layers get exercised.

const storeShared = "struct super { u32 s_field; };\n"

const storeReaderSrc = storeShared + `
struct ropts { long limit; };
int check(struct ropts *opts, struct super *sb) {
	if (opts->limit < 512) {
		return fail();
	}
	if (opts->limit > sb->s_field) {
		return fail();
	}
	return 0;
}`

func storeFixture() map[string]*Component {
	writer := miniComponent("writer", storeShared+`
struct wopts { long v; };
void setup(struct wopts *opts, struct super *sb) {
	if (opts->v < 1024) {
		fail();
	}
	sb->s_field = opts->v;
}`, Param{Name: "v", Var: "opts.v", CType: "int"})
	reader := miniComponent("reader", storeReaderSrc,
		Param{Name: "limit", Var: "opts.limit", CType: "int"})
	solo := miniComponent("solo", `
struct sopts { long n; };
int validate(struct sopts *opts) {
	if (opts->n < 2 || opts->n > 64) {
		return fail();
	}
	return 0;
}`, Param{Name: "n", Var: "opts.n", CType: "int"})
	return map[string]*Component{"writer": writer, "reader": reader, "solo": solo}
}

func storeScenarios() []Scenario {
	return []Scenario{
		{Name: "bridge", Components: []string{"writer", "reader"},
			Funcs: map[string][]string{"writer": {"setup"}, "reader": {"check"}}},
		{Name: "solo", Components: []string{"solo"},
			Funcs: map[string][]string{"solo": {"validate"}}},
		{Name: "all", Components: []string{"writer", "reader", "solo"},
			Funcs: map[string][]string{"writer": {"setup"}, "reader": {"check"}, "solo": {"validate"}}},
	}
}

// renderDeps serializes per-scenario dependency sets exactly as the
// JSON output path would — the byte-identity oracle for warm starts.
func renderDeps(t *testing.T, results []*Result) string {
	t.Helper()
	var b strings.Builder
	for _, res := range results {
		blob, err := json.Marshal(res.Deps)
		if err != nil {
			t.Fatalf("marshal %s: %v", res.Scenario.Name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", res.Scenario.Name, blob)
	}
	return b.String()
}

func openStoreT(t *testing.T, dir string) *depstore.Store {
	t.Helper()
	s, err := depstore.OpenWith(depstore.Options{Dir: dir})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

// dropRecords removes every record of the given kind, simulating a
// partially-populated cache directory.
func dropRecords(t *testing.T, dir, kind string) {
	t.Helper()
	files, err := depstore.ListRecords(dir, kind)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no %s records to drop", kind)
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskWarmSkipsEngineAndCompile is the tentpole contract: a second
// process over an unchanged corpus answers every scenario from disk —
// zero taint-engine executions, zero compilations — with byte-identical
// output.
func TestDiskWarmSkipsEngineAndCompile(t *testing.T) {
	scenarios := storeScenarios()
	plain, err := AnalyzeAll(storeFixture(), scenarios, Options{}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	want := renderDeps(t, plain)

	dir := t.TempDir()
	cold := storeFixture()
	coldRes, err := AnalyzeAll(cold, scenarios, Options{Store: openStoreT(t, dir)}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(t, coldRes); got != want {
		t.Errorf("cold store run differs from storeless run:\nwant %s\ngot  %s", want, got)
	}
	if cs := TotalCacheStats(cold); cs.EngineRuns == 0 || cs.DiskMisses == 0 {
		t.Fatalf("cold run did not populate the store: %+v", cs)
	}

	warm := storeFixture()
	warmRes, err := AnalyzeAll(warm, scenarios, Options{Store: openStoreT(t, dir)}, sched.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(t, warmRes); got != want {
		t.Errorf("warm run differs from cold run:\nwant %s\ngot  %s", want, got)
	}
	cs := TotalCacheStats(warm)
	if cs.EngineRuns != 0 {
		t.Errorf("warm run executed the engine %d times, want 0 (%+v)", cs.EngineRuns, cs)
	}
	for name, c := range warm {
		if c.prog != nil {
			t.Errorf("warm run compiled %s; scenario records should answer without compiling", name)
		}
	}
}

// TestDiskWarmTaintLayer drops the scenario records so the warm run
// falls through to the per-component taint layer: it must compile but
// still run the engine zero times.
func TestDiskWarmTaintLayer(t *testing.T) {
	scenarios := storeScenarios()
	dir := t.TempDir()
	cold := storeFixture()
	coldRes, err := AnalyzeAll(cold, scenarios, Options{Store: openStoreT(t, dir)}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	want := renderDeps(t, coldRes)
	dropRecords(t, dir, depstore.KindScenario)

	warm := storeFixture()
	warmRes, err := AnalyzeAll(warm, scenarios, Options{Store: openStoreT(t, dir)}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(t, warmRes); got != want {
		t.Errorf("taint-layer warm run differs:\nwant %s\ngot  %s", want, got)
	}
	cs := TotalCacheStats(warm)
	if cs.EngineRuns != 0 || cs.DiskHits == 0 {
		t.Errorf("taint records did not answer the warm run: %+v", cs)
	}
	for name, c := range warm {
		if c.prog == nil {
			t.Errorf("%s not compiled; the taint layer needs the IR to rehydrate sites", name)
		}
	}
}

// TestLeftoverSummaryRecordsIgnored: stores written before the
// per-function summary table was removed may still hold "summaries"
// records. With the scenario and taint records gone, a warm run must
// re-run the engine, match the cold output, and read nothing — the
// leftover included — while Scrub still validates it and Evict ages it
// out.
func TestLeftoverSummaryRecordsIgnored(t *testing.T) {
	scenarios := storeScenarios()
	dir := t.TempDir()
	cold := storeFixture()
	coldStore := openStoreT(t, dir)
	coldRes, err := AnalyzeAll(cold, scenarios, Options{Store: coldStore}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	want := renderDeps(t, coldRes)
	comp := cold["writer"]
	if err := coldStore.Put("summaries", depstore.Key("summaries", comp.ContentHash()), []byte(`[]`)); err != nil {
		t.Fatal(err)
	}
	dropRecords(t, dir, depstore.KindScenario)
	dropRecords(t, dir, depstore.KindTaint)

	warm := storeFixture()
	warmStore := openStoreT(t, dir)
	warmRes, err := AnalyzeAll(warm, scenarios, Options{Store: warmStore}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(t, warmRes); got != want {
		t.Errorf("warm run over a leftover summary record differs:\nwant %s\ngot  %s", want, got)
	}
	if cs := TotalCacheStats(warm); cs.EngineRuns == 0 {
		t.Errorf("engine should re-run with only a summary record on disk: %+v", cs)
	}
	if st := warmStore.Stats(); st.Hits != 0 {
		t.Errorf("warm run read %d records; the leftover summary record must never be read", st.Hits)
	}

	leftover, err := depstore.ListRecords(dir, "summaries")
	if err != nil || len(leftover) != 1 {
		t.Fatalf("leftover summary records = %v (%v), want 1", leftover, err)
	}
	rep, err := openStoreT(t, dir).Scrub(depstore.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bad() != 0 || rep.Removed != 0 || rep.Valid != rep.Scanned {
		t.Errorf("scrub refused a record: %+v", rep)
	}
	if _, err := os.Stat(leftover[0]); err != nil {
		t.Errorf("scrub removed the valid leftover: %v", err)
	}
	if _, err := openStoreT(t, dir).Evict(0); err != nil {
		t.Fatal(err)
	}
	if left, _ := depstore.ListRecords(dir, "summaries"); len(left) != 0 {
		t.Errorf("Evict(0) left summary records: %v", left)
	}
}

// TestDegradedRunBypassesScenarioRecords: degraded-mode output depends
// on which components fail, not just on content, so it must not be
// served from (or recorded as) strict scenario records — but it still
// shares the per-component taint records.
func TestDegradedRunBypassesScenarioRecords(t *testing.T) {
	scenarios := storeScenarios()
	dir := t.TempDir()
	cold := storeFixture()
	if _, err := AnalyzeAll(cold, scenarios, Options{Store: openStoreT(t, dir)}, sched.Sequential()); err != nil {
		t.Fatal(err)
	}
	before, err := depstore.ListRecords(dir, depstore.KindScenario)
	if err != nil {
		t.Fatal(err)
	}

	comps := storeFixture()
	comps["broken"] = miniComponent("broken", "int f( {", Param{Name: "x", Var: "x"})
	degScenarios := append(append([]Scenario(nil), scenarios...), Scenario{
		Name: "with-broken", Components: []string{"solo", "broken"},
		Funcs: map[string][]string{"solo": {"validate"}, "broken": {"f"}},
	})
	run, err := AnalyzeAllDegraded(comps, degScenarios, Options{Store: openStoreT(t, dir)}, sched.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Degradations) != 1 || run.Degradations[0].Component != "broken" {
		t.Fatalf("degradations = %+v", run.Degradations)
	}
	after, err := depstore.ListRecords(dir, depstore.KindScenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("degraded run changed scenario records: %d → %d", len(before), len(after))
	}
	if cs := TotalCacheStats(comps); cs.EngineRuns != 0 {
		t.Errorf("degraded run re-ran the engine %d times despite warm taint records", cs.EngineRuns)
	}
}

// TestContentHashDiscriminates pins the addressing: source, params, and
// name all move a component to fresh records.
func TestContentHashDiscriminates(t *testing.T) {
	base := miniComponent("c", "int f() { return 0; }", Param{Name: "p", Var: "v"})
	editedSrc := miniComponent("c", "int f() { return 1; }", Param{Name: "p", Var: "v"})
	editedParam := miniComponent("c", "int f() { return 0; }", Param{Name: "p", Var: "w"})
	renamed := miniComponent("d", "int f() { return 0; }", Param{Name: "p", Var: "v"})
	same := miniComponent("c", "int f() { return 0; }", Param{Name: "p", Var: "v"})
	h := base.ContentHash()
	if editedSrc.ContentHash() == h || editedParam.ContentHash() == h || renamed.ContentHash() == h {
		t.Error("content hash ignored an edit")
	}
	if same.ContentHash() != h {
		t.Error("content hash not deterministic")
	}
}
