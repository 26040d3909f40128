// Persistent-store integration: content addressing and the glue
// between the in-process caches and internal/depstore.
//
// The store adds one layer under the taint memo of cache.go and one
// above it:
//
//   - taint records (cache.go): a component's converged taint result,
//     keyed by its content hash plus the canonical taint signature, so
//     a warm process skips the fixpoint but still compiles (the result
//     rehydrates branch-site expressions against the compiled IR);
//   - scenario records (analyzer.go): a whole scenario's extracted
//     dependency set, keyed by every referenced component's content
//     hash plus the scenario selection and options — a hit answers the
//     strict path without compiling anything.
//
// Every key embeds content hashes, so edits move components to fresh
// addresses and stale records are simply never read again; there is no
// invalidation protocol to get wrong.

package core

import (
	"fmt"
	"strings"

	"fsdep/internal/depstore"
)

// ContentHash returns the component's content address: a deterministic
// hash over its name, source text, and parameter list. It is the
// persistent store's notion of component identity — any edit moves the
// component's records to fresh addresses — and requires no
// compilation, so warm starts can derive keys without doing work.
func (c *Component) ContentHash() string {
	c.hashOnce.Do(func() {
		parts := []string{c.Name, c.Source}
		for _, p := range c.Params {
			parts = append(parts, p.Name, p.Var, p.Func, p.CType, p.Doc)
		}
		c.contentHash = depstore.Key(parts...)
	})
	return c.contentHash
}

// PrefetchRefs enumerates every store record a run over the given
// scenarios could read — whole-scenario extractions and memoized taint
// results — deduplicated, in deterministic scenario order. All keys
// derive from content hashes and options alone, no compilation, so a
// warm start can hand the full manifest to Store.Prefetch and pull the
// corpus in one bulk round trip before analysis begins. Scenarios
// referencing unknown components contribute what they can; the cold
// path reports the error.
func PrefetchRefs(comps map[string]*Component, scenarios []Scenario, opts Options) []depstore.Ref {
	var refs []depstore.Ref
	seen := make(map[depstore.Ref]bool)
	add := func(kind, key string) {
		ref := depstore.Ref{Kind: kind, Key: key}
		if !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
	}
	for _, sc := range scenarios {
		if key, ok := scenarioKey(comps, sc, opts); ok {
			add(depstore.KindScenario, key)
		}
		for _, name := range sc.Components {
			comp, ok := comps[name]
			if !ok {
				continue
			}
			if funcs := sc.Funcs[name]; len(funcs) > 0 {
				add(depstore.KindTaint, depstore.Key(comp.ContentHash(),
					taintSig(opts.Mode, opts.MaxIter, opts.Sanitizers, funcs)))
			}
		}
	}
	return refs
}

// scenarioKey derives the content address of a whole-scenario
// extraction. It covers everything the strict result depends on: the
// analysis options, the scenario's name and component pipeline, each
// referenced component's content hash, and the per-component function
// selections. Returns ok=false when the scenario references an unknown
// component — the caller falls through to the cold path, which reports
// the error.
func scenarioKey(comps map[string]*Component, sc Scenario, opts Options) (string, bool) {
	parts := []string{
		"scenario",
		fmt.Sprintf("%d/%d", opts.Mode, opts.MaxIter),
		strings.Join(sortedCopy(opts.Sanitizers), "\x00"),
		sc.Name,
		strings.Join(sc.Components, "\x00"),
	}
	for _, name := range sc.Components {
		comp, ok := comps[name]
		if !ok {
			return "", false
		}
		parts = append(parts, comp.ContentHash(),
			strings.Join(sortedCopy(sc.Funcs[name]), "\x00"))
	}
	return depstore.Key(parts...), true
}
