package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fsdep/internal/cliutil"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/depstore"
	"fsdep/internal/depstore/remote"
	"fsdep/internal/depstore/wire"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/report"
	"fsdep/internal/taint"
)

// setupReps is how many times a workload sets up; setup_s is their
// median.
func setupReps(e *env) int {
	if e.smoke {
		return 1
	}
	return 9
}

// saltedCorpus is a fresh copy of the corpus with a comment naming tag
// appended to every source. The comment changes each ContentHash, so
// the program cache and taint memo miss as in a new process, while the
// output stays byte-identical: the comment adds no token and moves no
// source position.
func saltedCorpus(tag string) map[string]*core.Component {
	comps := corpus.Components()
	for _, c := range comps {
		c.Source += "\n/* fsdepbench " + tag + " */\n"
	}
	return comps
}

func sortedNames(comps map[string]*core.Component) []string {
	names := make([]string, 0, len(comps))
	for n := range comps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cliOut is what one in-process fsdep run printed and scored.
type cliOut struct {
	res      *report.Table5Result
	rendered bytes.Buffer
	tp, fp   int
}

// table5 makes the calls fsdep makes for a full Table-5 run: the
// strict intra-procedural extraction, rendering and scoring.
func (e *env) table5(o *outcome, tr *tracer, parent int64, op int, comps map[string]*core.Component, store *depstore.Store) (*cliOut, error) {
	out := &cliOut{}
	var err error
	tr.call(parent, op, "report.RunTable5Opts", false, func() {
		out.res, err = report.RunTable5Opts(comps, core.Options{Mode: taint.Intra, Store: store}, e.sopts)
	})
	if err != nil {
		return nil, err
	}
	render := tr.call(parent, op, "report.Render", false, func() { err = out.res.Render(&out.rendered) })
	if err != nil {
		return nil, err
	}
	var tp, fp []depmodel.Dependency
	score := tr.call(parent, op, "corpus.Score", false, func() { tp, fp = corpus.Score(out.res.Union.Deps.Deps()) })
	out.tp, out.fp = len(tp), len(fp)
	if e.trace {
		o.sample("report.render_ms", ms(render))
		o.sample("report.score_ms", ms(score))
	}
	return out, nil
}

func (e *env) check(out *cliOut) error {
	return e.golden.checkTable5(out.rendered.Bytes(), out.res, out.tp, out.fp)
}

// sampleTaint records the taint memo counters of one run's components.
func sampleTaint(o *outcome, comps map[string]*core.Component) {
	cs := core.TotalCacheStats(comps)
	o.sample("taint.engine_runs", float64(cs.EngineRuns))
	o.sample("taint.memo_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	o.sample("taint.summary_hit_ratio", ratio(float64(cs.SummaryHits), float64(cs.SummaryHits+cs.SummaryMisses)))
}

// sampleCompiles records the program-cache outcome of the compiles
// made since the counters read (h0, m0).
func sampleCompiles(o *outcome, h0, m0 uint64) {
	h1, m1 := core.ProgramCacheStats()
	o.sample("core.progcache_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)))
}

// probeFrontend lexes, parses and lowers every source of comps on its
// own, as shadow calls.
func probeFrontend(o *outcome, tr *tracer, parent int64, op int, comps map[string]*core.Component) error {
	var lex, parse, build time.Duration
	var tokens, instrs int
	for _, name := range sortedNames(comps) {
		file, src := name+".c", comps[name].Source
		var toks []minicc.Token
		var f *minicc.File
		var p *ir.Program
		var err error
		lex += tr.call(parent, op, "minicc.Tokenize", true, func() { toks, err = minicc.NewLexer(file, src).Tokenize() })
		if err != nil {
			return err
		}
		tokens += len(toks)
		parse += tr.call(parent, op, "minicc.Parse", true, func() { f, err = minicc.Parse(file, src) })
		if err != nil {
			return err
		}
		build += tr.call(parent, op, "ir.Build", true, func() { p, err = ir.Build(f) })
		if err != nil {
			return err
		}
		for _, fn := range p.Funcs {
			fn.Instrs(func(*ir.Instr) { instrs++ })
		}
	}
	o.sample("minicc.lex_ms", ms(lex))
	o.sample("minicc.parse_ms", ms(parse))
	o.sample("minicc.tokens", float64(tokens))
	o.sample("ir.build_ms", ms(build))
	o.sample("ir.instrs", float64(instrs))
	return nil
}

// probeAnalysis compiles comps, then analyzes every scenario twice
// without a store: the first run pays the taint fixpoint and
// derivation, the second finds the taint memo warm and pays derivation
// alone. The fixpoint's time is their difference. It returns how many
// taint engines the first run started.
func probeAnalysis(e *env, o *outcome, tr *tracer, parent int64, op int, comps map[string]*core.Component) (uint64, error) {
	var compile time.Duration
	for _, name := range sortedNames(comps) {
		var err error
		compile += tr.call(parent, op, "core.Compile", true, func() { err = comps[name].Compile() })
		if err != nil {
			return 0, err
		}
	}
	opts := core.Options{Mode: taint.Intra}
	runs := core.TotalCacheStats(comps).EngineRuns
	var err error
	cold := tr.call(parent, op, "core.AnalyzeAll(cold memo)", true, func() {
		_, err = core.AnalyzeAll(comps, corpus.Scenarios(), opts, e.sopts)
	})
	if err != nil {
		return 0, err
	}
	runs = core.TotalCacheStats(comps).EngineRuns - runs
	warm := tr.call(parent, op, "core.AnalyzeAll(warm memo)", true, func() {
		_, err = core.AnalyzeAll(comps, corpus.Scenarios(), opts, e.sopts)
	})
	if err != nil {
		return 0, err
	}
	o.sample("core.compile_ms", ms(compile))
	o.sample("taint.fixpoint_ms", ms(cold-warm))
	o.sample("core.derive_ms", ms(warm))
	return runs, nil
}

// runCold is the cli-cold workload: storeless fsdep runs over a corpus
// salted per op.
func runCold(e *env) (*outcome, error) {
	o := newOutcome()
	for k := 0; k < setupReps(e); k++ {
		start := time.Now()
		comps := saltedCorpus(fmt.Sprintf("cold seed=%d warm-up=%d", e.seed, k))
		out, err := e.table5(o, nil, 0, 0, comps, nil)
		if err == nil {
			err = e.check(out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
	}
	e.loop(o, 1, func(i int, tr *tracer) (time.Duration, error) {
		tag := fmt.Sprintf("cold seed=%d op=%d", e.seed, i)
		comps := saltedCorpus(tag)
		h0, m0 := core.ProgramCacheStats()
		root := tr.begin(0, i, "op", false)
		start := time.Now()
		out, err := e.table5(o, tr, root, i, comps, nil)
		d := time.Since(start)
		tr.end(root)
		if err != nil {
			return d, err
		}
		if e.trace {
			sampleCompiles(o, h0, m0)
			sampleTaint(o, comps)
			o.sample("depstore.records_per_op", 0)
		}
		if tr != nil {
			sh := tr.begin(0, i, "shadow", true)
			err = probeFrontend(o, tr, sh, i, saltedCorpus(tag+" frontend"))
			if err == nil {
				_, err = probeAnalysis(e, o, tr, sh, i, saltedCorpus(tag+" analysis"))
			}
			tr.end(sh)
			if err != nil {
				return d, err
			}
		}
		return d, e.check(out)
	})
	rss, err := peakRSSMB("self")
	o.rssMB = rss
	return o, err
}

// storeShares splits cli-store's measured time between its remote-warm,
// disk-warm and first-run phases.
var storeShares = [3]float64{0.6, 0.2, 0.2}

// runStore is the cli-store workload. Its op is a remote-warm fsdep
// start against a child fsdepd; disk-warm starts and first runs into an
// empty durable store are measured beside it.
func runStore(e *env) (*outcome, error) {
	o := newOutcome()
	// Each start stands for a new CLI process, which has no compiled
	// program in memory: keep the process-wide program cache off.
	core.SetProgramCacheCapacity(0)
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	diskDir := filepath.Join(e.work, "disk")
	for k := 0; k < setupReps(e); k++ {
		if d != nil {
			d.stop()
			d = nil
		}
		if err := os.RemoveAll(diskDir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		store := cliutil.OpenStore("fsdep", diskDir, "")
		if store == nil {
			return nil, fmt.Errorf("cannot open a store at %s", diskDir)
		}
		out, err := e.table5(o, nil, 0, 0, corpus.Components(), store)
		if err == nil {
			err = e.check(out)
		}
		if err != nil {
			return nil, fmt.Errorf("populating the disk store: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
	}

	// Three phases, so the fsyncs of first runs do not disturb the warm
	// starts: remote-warm starts (the op), disk-warm starts, first runs.
	var disk, fill []float64
	var compiles uint64
	e.loop(o, storeShares[0], func(i int, tr *tracer) (time.Duration, error) {
		dur, err := e.warmStart(o, tr, i, "remote-start", "", d.url, &compiles)
		if err == nil && tr != nil {
			sh := tr.begin(0, i, "shadow", true)
			err = e.probeStore(o, tr, sh, i, d, diskDir)
			tr.end(sh)
		}
		return dur, err
	})
	e.phase(storeShares[1], func(i int, tr *tracer) {
		if dd, err := e.warmStart(o, tr, i, "disk-start", diskDir, "", &compiles); o.tally(err) {
			disk = append(disk, ms(dd))
		}
	})
	e.phase(storeShares[2], func(i int, tr *tracer) {
		if fd, err := e.fillStart(o, tr, i); o.tally(err) {
			fill = append(fill, ms(fd))
		}
	})
	o.metrics["disk_p50_ms"] = median(disk)
	o.metrics["fill_p50_ms"] = median(fill)
	o.info["disk_samples"] = len(disk)
	o.info["fill_samples"] = len(fill)
	o.info["compiles_in_warm_starts"] = compiles
	rss, err := peakRSSMB("self")
	o.rssMB = rss
	return o, err
}

// warmStart is one fsdep start against an already warm store: dir for
// a disk-warm start, url for a remote-only one. It must run no taint
// engine.
func (e *env) warmStart(o *outcome, tr *tracer, op int, name, dir, url string, compiles *uint64) (time.Duration, error) {
	comps := corpus.Components()
	h0, m0 := core.ProgramCacheStats()
	root := tr.begin(0, op, name, false)
	start := time.Now()
	var store *depstore.Store
	tr.call(root, op, "cliutil.OpenStore", false, func() { store = cliutil.OpenStore("fsdep", dir, url) })
	out, err := e.table5(o, tr, root, op, comps, store)
	d := time.Since(start)
	tr.end(root)
	if err != nil {
		return d, err
	}
	if store == nil || (url != "" && !store.HasRemote()) {
		return d, fmt.Errorf("%s: the store did not open", name)
	}
	h1, m1 := core.ProgramCacheStats()
	*compiles += h1 - h0 + m1 - m0
	cs := core.TotalCacheStats(comps)
	if e.trace {
		st := store.Stats()
		if url != "" {
			sampleCompiles(o, h0, m0)
			sampleTaint(o, comps)
			if c, ok := store.Remote().(*remote.Client); ok {
				rs := c.Stats()
				o.sample("remote.round_trips", float64(rs.RoundTrips))
				o.sample("remote.retries", float64(rs.Retries))
			}
		} else {
			o.sample("depstore.hot_hit_ratio", ratio(float64(st.HotHits), float64(st.Hits)))
		}
	}
	if cs.EngineRuns != 0 {
		return d, wrongf("%s ran %d taint engines, want 0", name, cs.EngineRuns)
	}
	return d, e.check(out)
}

// fillStart is a first fsdep run of a salted corpus into an empty
// durable store.
func (e *env) fillStart(o *outcome, tr *tracer, op int) (time.Duration, error) {
	dir, err := os.MkdirTemp(e.work, "fill-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	comps := saltedCorpus(fmt.Sprintf("fill seed=%d op=%d", e.seed, op))
	root := tr.begin(0, op, "fill-start", false)
	start := time.Now()
	var store *depstore.Store
	tr.call(root, op, "cliutil.OpenStore", false, func() { store = cliutil.OpenStore("fsdep", dir, "") })
	out, err := e.table5(o, tr, root, op, comps, store)
	d := time.Since(start)
	tr.end(root)
	if err != nil {
		return d, err
	}
	if store == nil {
		return d, fmt.Errorf("fill-start: the store did not open")
	}
	if e.trace {
		n, err := dirBytes(dir)
		if err != nil {
			return d, err
		}
		o.sample("depstore.records_per_op", float64(store.Stats().Writes))
		o.sample("depstore.bytes_per_op", float64(n))
	}
	if cs := core.TotalCacheStats(comps); cs.EngineRuns == 0 {
		return d, wrongf("fill-start ran no taint engine on a new corpus")
	}
	return d, e.check(out)
}

// probeStore times the store layers on the corpus manifest, as shadow
// calls: a bulk prefetch into a fresh remote-only store, a client
// batch-get, the wire codec, per-record Gets from the disk-warm store
// and durable per-record Puts into an empty one.
func (e *env) probeStore(o *outcome, tr *tracer, parent int64, op int, d *daemon, diskDir string) error {
	refs := recordManifest()
	ps, err := depstore.OpenWith(depstore.Options{Remote: remote.New(d.url), HotRecords: depstore.DefaultHotRecords})
	if err != nil {
		return err
	}
	o.sample("core.prefetch_ms", ms(tr.call(parent, op, "depstore.Prefetch", true, func() { ps.Prefetch(refs) })))

	st0, err := d.stats()
	if err != nil {
		return err
	}
	var got map[depstore.Ref][]byte
	var ok bool
	c := remote.New(d.url)
	o.sample("remote.batch_get_ms", ms(tr.call(parent, op, "remote.BatchGet", true, func() { got, ok = c.BatchGet(refs) })))
	st1, err := d.stats()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("batch-get of the corpus manifest failed")
	}
	raw := st1.Service.BatchRawBytes - st0.Service.BatchRawBytes
	o.sample("wire.bytes", float64(raw))
	o.sample("wire.gzip_ratio", ratio(float64(raw), float64(st1.Service.BatchWireBytes-st0.Service.BatchWireBytes)))

	if len(got) != len(refs) {
		return wrongf("batch-get returned %d of %d manifest records", len(got), len(refs))
	}
	recs := make([]wire.Record, len(refs))
	for i, r := range refs {
		recs[i] = wire.Record{Kind: r.Kind, Key: r.Key, Payload: got[r]}
	}
	var buf bytes.Buffer
	o.sample("wire.encode_ms", ms(tr.call(parent, op, "wire.Write", true, func() { err = wire.Write(&buf, recs) })))
	if err != nil {
		return err
	}
	var back []wire.Record
	o.sample("wire.decode_ms", ms(tr.call(parent, op, "wire.ReadAll", true, func() {
		back, err = wire.ReadAll(bytes.NewReader(buf.Bytes()), 1<<30)
	})))
	if err != nil {
		return err
	}
	if len(back) != len(recs) {
		return wrongf("wire round trip kept %d of %d records", len(back), len(recs))
	}

	gs, err := depstore.OpenWith(depstore.Options{Dir: diskDir})
	if err != nil {
		return err
	}
	get := tr.call(parent, op, "depstore.Get", true, func() {
		for _, r := range refs {
			gs.Get(r.Kind, r.Key)
		}
	})
	o.sample("depstore.get_us", float64(get)/1e3/float64(len(refs)))

	dir, err := os.MkdirTemp(e.work, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pst, err := depstore.OpenWith(depstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	put := tr.call(parent, op, "depstore.Put", true, func() {
		for _, r := range recs {
			if err == nil {
				err = pst.Put(r.Kind, r.Key, r.Payload)
			}
		}
	})
	if err != nil {
		return err
	}
	o.sample("depstore.put_ms", ms(put)/float64(len(recs)))
	return nil
}
