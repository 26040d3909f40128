package depstore

import (
	"encoding/json"
	"reflect"
	"testing"

	"fsdep/internal/depmodel"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/taint"
)

const recordSrc = `
struct sb { u32 a; };
void writer(struct sb *s, int conf) {
	s->a = conf;
}
void reader(struct sb *s, int other) {
	int x;
	int both;
	x = s->a;
	both = x + other;
	if (x > 2 || other < 1) {
		fail();
	}
}`

func compileT(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := minicc.Parse("rec.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func runT(t *testing.T, p *ir.Program) *taint.Result {
	t.Helper()
	return taint.Run(p, []taint.Seed{
		{Param: "conf", Func: "writer", Var: "conf"},
		{Param: "other", Func: "reader", Var: "other"},
	}, taint.Options{})
}

func TestTaintRecordRoundTrip(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	s := openT(t)
	key := Key("comp-hash", "sig")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok := LoadTaint(s, key, p)
	if !ok {
		t.Fatal("load missed a just-saved record")
	}
	// Sites carry rehydrated AST expressions: they must be the branch
	// conditions of the program the load ran against.
	if len(got.Sites) != len(res.Sites) {
		t.Fatalf("sites = %d, want %d", len(got.Sites), len(res.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i].Expr != res.Sites[i].Expr {
			t.Errorf("site %d: expression not rehydrated to the program's branch AST", i)
		}
	}
	// Every fact map must survive semantically: compare via canonical
	// JSON, which normalizes the SeedSet word-slice representation.
	for name, pair := range map[string][2]any{
		"Taint":       {res.Taint, got.Taint},
		"FieldWrites": {res.FieldWrites, got.FieldWrites},
		"FieldReads":  {res.FieldReads, got.FieldReads},
		"Traces":      {res.Traces, got.Traces},
		"Seeds":       {res.Seeds, got.Seeds},
		"Multi":       {res.Multi, got.Multi},
	} {
		want, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(have) {
			t.Errorf("%s differs after round trip:\nwant %s\ngot  %s", name, want, have)
		}
	}
	// Site taint facts (beyond the Expr pointer).
	for i := range got.Sites {
		if !reflect.DeepEqual(got.Sites[i].Keys, res.Sites[i].Keys) ||
			!reflect.DeepEqual(got.Sites[i].PlainFirstKeys, res.Sites[i].PlainFirstKeys) ||
			!reflect.DeepEqual(got.Sites[i].CanonOf, res.Sites[i].CanonOf) {
			t.Errorf("site %d metadata differs after round trip", i)
		}
	}
}

func TestTaintRecordSkipsTruncatedRuns(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	res.BudgetErr = &taint.BudgetExceeded{Budget: 1, Pending: 1}
	s := openT(t)
	key := Key("trunc")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, ok := s.Get(KindTaint, key); ok {
		t.Fatal("truncated run was persisted")
	}
}

func TestTaintRecordRefusesForeignProgram(t *testing.T) {
	p := compileT(t, recordSrc)
	res := runT(t, p)
	s := openT(t)
	key := Key("foreign")
	if err := SaveTaint(s, key, res); err != nil {
		t.Fatalf("save: %v", err)
	}
	// A program without the recorded branch positions cannot rehydrate
	// the sites; the load must refuse, not fabricate.
	other := compileT(t, `
void unrelated(int v) {
	int w;
	w = v;
}`)
	if _, ok := LoadTaint(s, key, other); ok {
		t.Fatal("record rehydrated against a foreign program")
	}
	if st := s.Stats(); st.Invalidations == 0 {
		t.Error("refused rehydration not counted as invalidation")
	}
}

func TestScenarioRecordRoundTrip(t *testing.T) {
	set := depmodel.NewSet()
	set.Add(depmodel.Dependency{
		Kind:       depmodel.SDValueRange,
		Source:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Min: depmodel.I64(1024), Expr: "blocksize >= 1024"},
		Evidence:   []string{"mke2fs.c:3"},
	})
	set.Add(depmodel.Dependency{
		Kind:       depmodel.CCDBehavioral,
		Source:     depmodel.ParamRef{Component: "e2fsck"},
		Target:     depmodel.ParamRef{Component: "mke2fs", Param: "blocksize"},
		Constraint: depmodel.Constraint{Relation: "behavioral", Expr: "depends"},
		Via:        []string{"ext2_super_block.s_log_block_size"},
	})
	s := openT(t)
	key := Key("scenario")
	if err := SaveScenario(s, key, set); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok := LoadScenario(s, key)
	if !ok {
		t.Fatal("load missed a just-saved scenario")
	}
	if !reflect.DeepEqual(set.Deps(), got.Deps()) {
		t.Errorf("deps differ after round trip:\nwant %+v\ngot  %+v", set.Deps(), got.Deps())
	}
}

func TestScenarioRecordRefusesInvalidDeps(t *testing.T) {
	s := openT(t)
	key := Key("invalid-scenario")
	// A payload that parses as JSON but fails dependency validation
	// (SD with a target) must load as a miss.
	bad := `[{"kind":"sd-data-type","source":{"component":"a","param":"p"},"target":{"component":"b","param":"q"},"constraint":{}}]`
	if err := s.Put(KindScenario, key, []byte(bad)); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadScenario(s, key); ok {
		t.Fatal("invalid dependency set loaded")
	}
	if st := s.Stats(); st.Invalidations == 0 {
		t.Error("refused scenario not counted as invalidation")
	}
}
