// Package service promotes the batch analysis pipeline to a
// long-running daemon: an Analysis owns a core.Session plus its
// persistent depstore.Store and serves dependency, violation, and
// degradation queries from the warm in-memory world, re-analyzing
// incrementally when a component's source is uploaded. The HTTP
// surface over it lives in server.go; cmd/fsdepd wires both to the
// Ext4 corpus.
//
// Consistency model: single writer, many readers. Queries take a read
// lock and see one coherent analysis generation; Upload takes the
// write lock, installs the edited component (Session.Invalidate), and
// re-runs the stale strict subset before releasing it — so no query
// ever observes a half-invalidated world, and every response is
// byte/structure-identical to what the equivalent CLI invocation over
// the same sources would print. That identity (and this lock) is
// pinned by the tests in this package.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/sched"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrUnknownComponent: the upload names a component outside the
	// ecosystem manifest.
	ErrUnknownComponent = errors.New("service: unknown component")
	// ErrUnknownScenario: the query names a scenario outside the corpus.
	ErrUnknownScenario = errors.New("service: unknown scenario")
	// ErrBadSource: the uploaded source failed to parse or lower; the
	// session is left untouched.
	ErrBadSource = errors.New("service: uploaded source does not compile")
)

// Analysis is the daemon's analysis state: one Session over a fixed
// scenario list, guarded by a single-writer/multi-reader lock.
type Analysis struct {
	mu        sync.RWMutex
	sess      *core.Session
	scenarios []core.Scenario
	opts      core.Options
	sopts     sched.Options
	ran       bool
	results   []*core.Result // scenario order; valid when ran
	gen       uint64         // bumped by every successful Upload

	// Violation sweeps are expensive (each trial drives a real fsim
	// pipeline), so the report is cached per analysis generation.
	vioMu  sync.Mutex
	vioGen uint64
	vioRep *conhandleck.Report
}

// New builds an Analysis over the given ecosystem. The component map
// and scenario list are captured (the Session copies the bindings);
// opts.Store attaches the persistent record store shared with remote
// clients.
func New(comps map[string]*core.Component, scenarios []core.Scenario, opts core.Options, sopts sched.Options) (*Analysis, error) {
	sess, err := core.NewSession(comps, scenarios, opts, sopts)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		sess:      sess,
		scenarios: append([]core.Scenario(nil), scenarios...),
		opts:      opts,
		sopts:     sopts,
	}, nil
}

// ensure performs the initial (or retried) full run under the write
// lock using the double-checked pattern, so steady-state queries pay
// only a read lock.
func (a *Analysis) ensure() error {
	a.mu.RLock()
	ok := a.ran
	a.mu.RUnlock()
	if ok {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ran {
		return nil
	}
	res, err := a.sess.Run()
	if err != nil {
		return err
	}
	a.results = res
	a.ran = true
	return nil
}

// Results returns one result per scenario in scenario order, running
// the analysis first if needed. The slice is a copy; the results are
// shared and read-only.
func (a *Analysis) Results() ([]*core.Result, error) {
	if err := a.ensure(); err != nil {
		return nil, err
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]*core.Result(nil), a.results...), nil
}

// Scenario returns the named scenario's current result.
func (a *Analysis) Scenario(name string) (*core.Result, error) {
	if err := a.ensure(); err != nil {
		return nil, err
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, res := range a.results {
		if res.Scenario.Name == name {
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownScenario, name)
}

// Union returns the deduplicated union of every scenario's
// dependencies — what the all-scenarios CLI run reports.
func (a *Analysis) Union() (*depmodel.Set, error) {
	results, err := a.Results()
	if err != nil {
		return nil, err
	}
	return core.Union(results), nil
}

// Scenarios lists the session's scenarios in order.
func (a *Analysis) Scenarios() []core.Scenario {
	return append([]core.Scenario(nil), a.scenarios...)
}

// Components lists the ecosystem's component names, sorted.
func (a *Analysis) Components() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	comps := a.sess.Components()
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Upload replaces a component's source (and optionally its parameter
// list; nil keeps the current one) and re-runs the stale strict subset
// before returning, all under the write lock — in-flight queries
// finish against the previous generation, queries after Upload returns
// see the new one, and nothing ever sees the gap between Invalidate
// and re-run. A source that does not compile is rejected with
// ErrBadSource and the session is left exactly as it was.
func (a *Analysis) Upload(name, source string, params []core.Param) (core.Invalidation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.sess.Components()
	old, ok := cur[name]
	if !ok {
		return core.Invalidation{}, fmt.Errorf("%w: %q", ErrUnknownComponent, name)
	}
	if params == nil {
		params = old.Params
	}
	fresh := &core.Component{Name: name, Source: source, Params: params}
	if err := fresh.Compile(); err != nil {
		return core.Invalidation{}, fmt.Errorf("%w: %v", ErrBadSource, err)
	}
	inv := a.sess.Invalidate(fresh)
	res, err := a.sess.Run()
	if err != nil {
		// The session keeps the stale marks; the next ensure retries.
		a.ran = false
		return inv, err
	}
	a.results = res
	a.ran = true
	a.gen++
	return inv, nil
}

// Degraded runs a fail-open analysis over the current component
// bindings: failing components are quarantined, healthy ones extract.
// Computed fresh per call (degraded output depends on which components
// fail, which is not cacheable content), under the read lock so
// uploads serialize against it.
func (a *Analysis) Degraded() (*core.DegradedRun, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return core.AnalyzeAllDegraded(a.sess.Components(), a.scenarios, a.opts, a.sopts)
}

// Violations executes ConHandleCk over the current extraction's
// dependency union: each extracted dependency class with a runnable
// violation is exercised against the simulated ecosystem and the
// handling verdict (rejected / benign / silent-corruption) reported.
// The report is cached until an upload changes the extraction.
func (a *Analysis) Violations() (*conhandleck.Report, error) {
	if err := a.ensure(); err != nil {
		return nil, err
	}
	a.mu.RLock()
	gen := a.gen
	results := append([]*core.Result(nil), a.results...)
	a.mu.RUnlock()

	a.vioMu.Lock()
	defer a.vioMu.Unlock()
	if a.vioRep != nil && a.vioGen == gen {
		return a.vioRep, nil
	}
	rep := conhandleck.RunParallel(core.Union(results), a.sopts)
	a.vioRep, a.vioGen = rep, gen
	return rep, nil
}

// Stats is one coherent snapshot of the daemon's cache counters.
type Stats struct {
	// Generation counts completed uploads (0 = pristine corpus).
	Generation uint64
	// Ran reports whether the initial full analysis has happened.
	Ran bool
	// Taint aggregates the in-process memo / disk / engine counters over
	// the session's components.
	Taint core.CacheStats
	// Store mirrors the persistent store's counters (zero value when no
	// store is attached).
	Store    depstore.StoreStats
	HasStore bool
}

// StatsSnapshot returns the current counters.
func (a *Analysis) StatsSnapshot() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := Stats{
		Generation: a.gen,
		Ran:        a.ran,
		Taint:      core.TotalCacheStats(a.sess.Components()),
	}
	if a.opts.Store != nil {
		st.Store = a.opts.Store.Stats()
		st.HasStore = true
	}
	return st
}
