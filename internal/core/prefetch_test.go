package core_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depstore"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// TestPrefetchRefsMatchesColdWrites pins the warm-start manifest: the
// refs PrefetchRefs derives without compiling anything are, as a set,
// exactly the records a cold run writes into an empty store. That is
// what lets a warm remote start pull the whole corpus in one batch.
func TestPrefetchRefsMatchesColdWrites(t *testing.T) {
	for _, mode := range []taint.Mode{taint.Intra, taint.Inter} {
		t.Run(mode.String(), func(t *testing.T) {
			comps, scenarios := corpus.Components(), corpus.Scenarios()
			refs := core.PrefetchRefs(comps, scenarios, core.Options{Mode: mode})
			if again := core.PrefetchRefs(comps, scenarios, core.Options{Mode: mode}); !reflect.DeepEqual(refs, again) {
				t.Fatalf("manifest differs between calls:\n%v\n%v", refs, again)
			}
			manifest := make(map[depstore.Ref]bool, len(refs))
			for _, ref := range refs {
				if manifest[ref] {
					t.Errorf("duplicate ref %v", ref)
				}
				if ref.Kind == "summaries" {
					t.Errorf("manifest holds a summaries ref: %v", ref)
				}
				manifest[ref] = true
			}

			dir := t.TempDir()
			store, err := depstore.OpenWith(depstore.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.AnalyzeAll(comps, scenarios, core.Options{Mode: mode, Store: store}, sched.Sequential()); err != nil {
				t.Fatal(err)
			}
			written := make(map[depstore.Ref]bool)
			for _, kc := range []struct {
				kind string
				want int
			}{{depstore.KindScenario, 4}, {depstore.KindTaint, 9}} {
				files, err := depstore.ListRecords(dir, kc.kind)
				if err != nil {
					t.Fatal(err)
				}
				if len(files) != kc.want {
					t.Errorf("cold run wrote %d %s records, want %d", len(files), kc.kind, kc.want)
				}
				for _, f := range files {
					written[depstore.Ref{Kind: kc.kind, Key: strings.TrimSuffix(filepath.Base(f), ".rec")}] = true
				}
			}
			if other, _ := depstore.ListRecords(dir, "summaries"); len(other) != 0 {
				t.Errorf("cold run wrote %d summaries records", len(other))
			}
			for ref := range manifest {
				if !written[ref] {
					t.Errorf("manifest ref %v was not written by the cold run", ref)
				}
			}
			for ref := range written {
				if !manifest[ref] {
					t.Errorf("cold run wrote %v, missing from the manifest", ref)
				}
			}
		})
	}
}
