// Package taint implements the classic taint analysis the paper's
// static analyzer applies to configuration parameters (§4.1): it
// maintains a set holding the initial configuration variables and every
// variable derived from them, records the propagating instruction in a
// per-seed taint trace, and tracks when one variable derives from
// multiple parameters.
//
// Two modes mirror the paper:
//
//   - Intra-procedural (the paper's prototype): taint propagates only
//     within each analyzed function; calls propagate nothing, so
//     sanitization or derivation in callees is invisible. The analyzer
//     therefore restricts extraction to a set of pre-selected functions
//     per scenario, exactly as §4.1 describes.
//   - Inter-procedural (the paper's stated future work, implemented
//     here as an extension): arguments flow into parameters, return
//     values flow back into call results, iterated to a fixpoint over
//     the call graph.
//
// In both modes, fields of shared metadata structures (canonical
// locations, e.g. ext2_super_block.s_log_block_size) behave as a global
// store: a write taints the canonical field, and reads anywhere pick
// the taint up. This is the paper's key bridging observation — all
// components access the FS metadata structures.
//
// # Data layout and the worklist fixpoint
//
// The engine does no string hashing on the hot path. Location keys and
// canonical names are interned into dense ids (the program-wide tables
// built at lowering, overlaid per run for seed-only keys), per-function
// taint is an id-indexed slice, and each instruction's operands are
// resolved to id triples (location, root, canonical field) once per
// run. The cross-function fixpoint is a dependency-driven worklist:
// after the initial pass, a function is re-analyzed only when a global
// fact it consumes — a canonical field it reads, a callee's return
// summary, its own inbound parameter taint — actually changed. All
// transfer functions are monotone set unions, so the worklist converges
// to the same least fixpoint as the previous whole-program sweeps, and
// the final reporting pass runs in deterministic program order.
package taint

import (
	"fmt"
	"sort"

	"fsdep/internal/ir"
	"fsdep/internal/minicc"
)

// BudgetExceeded reports that the worklist fixpoint exhausted its
// visit budget (MaxIter × analyzed functions) with functions still
// queued: the reported facts are a sound under-approximation, not the
// least fixpoint. Callers that need complete results must treat the
// run as failed; degraded-mode pipelines quarantine the component
// instead of silently accepting truncated output.
type BudgetExceeded struct {
	// Budget is the visit budget that ran out.
	Budget int
	// Pending counts the functions still queued for re-analysis.
	Pending int
}

// Error implements error.
func (e *BudgetExceeded) Error() string {
	return fmt.Sprintf("taint: fixpoint visit budget (%d) exhausted with %d functions pending re-analysis", e.Budget, e.Pending)
}

// Mode selects the propagation strategy.
type Mode uint8

// Analysis modes.
const (
	// Intra runs intra-procedural propagation only (the paper's
	// preliminary prototype).
	Intra Mode = iota
	// Inter additionally propagates through calls and returns to a
	// fixpoint (the paper's future work).
	Inter
)

// String names the mode.
func (m Mode) String() string {
	if m == Inter {
		return "inter-procedural"
	}
	return "intra-procedural"
}

// Seed is an initial configuration variable to track.
type Seed struct {
	// Param is the configuration parameter name the seed represents.
	Param string
	// Func is the function in whose scope the seeded variable lives;
	// "" seeds the variable in every analyzed function.
	Func string
	// Var is the variable (ir.Loc root) holding the parameter value.
	Var string
	// Field optionally seeds a member path below Var (dotted).
	Field string
}

// loc returns the ir location of the seed (without canonical info; key
// matching is by Var/Path).
func (s Seed) key() string {
	if s.Field == "" {
		return s.Var
	}
	return s.Var + "." + s.Field
}

// Options configures an analysis run.
type Options struct {
	Mode Mode
	// Functions restricts analysis to the named functions (the
	// paper's pre-selected function lists). Empty means all. The
	// engine analyzes and reports in program (source) order and drops
	// duplicates, so the result depends only on the *set* of names —
	// the property core's memo cache keys on.
	Functions []string
	// Sanitizers lists callee names whose results are considered
	// clean even when arguments are tainted (e.g. a clamp helper).
	// Only meaningful for calls whose results are assigned.
	Sanitizers []string
	// MaxIter bounds fixpoint work (safety valve; 0 = default). The
	// worklist processes at most MaxIter visits per analyzed function.
	MaxIter int
}

// FieldWrite records a tainted store to a canonical metadata field.
type FieldWrite struct {
	// Canon is the canonical field, e.g. "ext2_super_block.s_blocks_count".
	Canon string
	// Seeds carries the parameters whose taint reached the store.
	Seeds SeedSet
	// Func and Pos locate the store.
	Func string
	Pos  minicc.Pos
}

// FieldRead records a use of a canonical metadata field.
type FieldRead struct {
	Canon string
	// Func and Pos locate the read.
	Func string
	Pos  minicc.Pos
	// InBranch marks reads occurring in a branch condition.
	InBranch bool
}

// Site is a constraint site: a branch whose condition uses tainted
// locations. The dependency-derivation pass interprets Expr against
// Taint to classify the constraint.
type Site struct {
	// Func is the containing function.
	Func string
	// Expr is the branch condition AST.
	Expr minicc.Expr
	// Pos locates the branch.
	Pos minicc.Pos
	// LocTaint maps location keys used in the condition to their seed
	// sets at the fixpoint.
	LocTaint map[string]SeedSet
	// CanonOf maps location keys to canonical metadata names ("" if
	// none).
	CanonOf map[string]string
	// Keys lists LocTaint's keys in ascending order, precomputed in
	// the reporting pass so downstream derivation never re-sorts.
	Keys []string
	// PlainFirstKeys lists the same keys with plain (non-canonical)
	// locations first, each group ascending — the reader-preference
	// order the cross-component join uses.
	PlainFirstKeys []string
}

// Result is the outcome of a taint run over one component.
type Result struct {
	// Taint maps function name → location key → seeds.
	Taint map[string]map[string]SeedSet
	// Sites lists tainted branch conditions in deterministic order.
	Sites []Site
	// FieldWrites lists tainted stores to canonical metadata fields.
	FieldWrites []FieldWrite
	// FieldReads lists reads of canonical metadata fields (tainted or
	// not — cross-component bridging needs the untainted ones too).
	FieldReads []FieldRead
	// Traces maps seed index → evidence positions (the taint trace).
	Traces map[int][]minicc.Pos
	// Seeds echoes the seed list, indexable by SeedSet IDs.
	Seeds []Seed
	// Multi maps location keys derived from ≥2 parameters in some
	// function ("func\x00lockey" form) — the paper's map tracking
	// variables derived from multiple parameters.
	Multi map[string]SeedSet
	// BudgetErr is non-nil when the worklist fixpoint ran out of its
	// visit budget before convergence (previously a silent
	// truncation). The other fields then hold the partial facts of the
	// interrupted run.
	BudgetErr *BudgetExceeded
}

// SeedsOf returns the taint of a location key within a function.
func (r *Result) SeedsOf(fn, lockey string) SeedSet {
	if m, ok := r.Taint[fn]; ok {
		return m[lockey]
	}
	return SeedSet{}
}

// Run executes the analysis over prog with the given seeds.
func Run(prog *ir.Program, seeds []Seed, opts Options) *Result {
	a := &analysis{
		prog:  prog,
		seeds: seeds,
		opts:  opts,
		res: &Result{
			Taint:  make(map[string]map[string]SeedSet),
			Traces: make(map[int][]minicc.Pos),
			Seeds:  seeds,
			Multi:  make(map[string]SeedSet),
		},
		locs:     newRunTab(prog.Locs),
		canons:   newRunTab(prog.Canons),
		sanitize: make(map[string]bool, len(opts.Sanitizers)),
		funcRet:  make(map[string]SeedSet),
	}
	for _, s := range opts.Sanitizers {
		a.sanitize[s] = true
	}
	a.run()
	return a.res
}

// useRef is an instruction operand with all lookup keys resolved to
// dense ids, computed once per run per function.
type useRef struct {
	id    int // location id (runTab over prog.Locs)
	root  int // root variable id for field accesses; -1 otherwise
	canon int // canonical field id (runTab over prog.Canons); -1 if none
}

// argFlow is one call expression inside an instruction with its
// argument locations resolved, for inter-procedural propagation.
type argFlow struct {
	callee string
	args   [][]useRef // aligned with the callee's leading params
}

// instrInfo is the resolved form of one ir.Instr.
type instrInfo struct {
	in        *ir.Instr
	uses      []useRef // aligned with in.Uses
	dst       useRef
	dstKey    string // in.Dst.Key(), for the Multi map
	sanitized bool   // a sanitizer appears among the callees
	argFlows  []argFlow
}

// funcState is the per-function dense analysis state.
type funcState struct {
	fn       *ir.Func
	taint    []SeedSet // location id → seeds
	paramIDs []int
	infos    []instrInfo
	inited   bool
}

// at returns the taint of a location id (empty beyond the slice).
func (st *funcState) at(id int) SeedSet {
	if id < len(st.taint) {
		return st.taint[id]
	}
	return SeedSet{}
}

// union merges s into the location's taint, reporting growth.
func (st *funcState) union(id int, s SeedSet) bool {
	for len(st.taint) <= id {
		st.taint = append(st.taint, SeedSet{})
	}
	return st.taint[id].Union(s)
}

// seedRef is one seed resolved to its location id.
type seedRef struct {
	loc  int
	seed int
	fn   string // "" seeds every analyzed function
}

type analysis struct {
	prog  *ir.Program
	seeds []Seed
	opts  Options
	res   *Result

	locs   *runTab
	canons *runTab

	fieldTaint []SeedSet // canonical field id → seeds (global store)
	sanitize   map[string]bool
	funcRet    map[string]SeedSet // inter mode: function → return taint
	paramIn    map[string][]SeedSet

	// seedRefs resolves every seed to its location id once per run —
	// the former per-location linear scan over all seeds is gone.
	seedRefs []seedRef

	funcs  []*ir.Func
	fidx   map[string]int
	states []*funcState

	// readers/callers are the worklist dependency edges, registered
	// when a function's state is first built.
	readers map[int][]int    // canonical field id → reader func indices
	callers map[string][]int // callee name → caller func indices

	// dirty* collect the global facts one analyzeFunc call changed.
	dirtyCanons []int
	dirtyRet    bool
	dirtyParams []string

	// flowScratch/argScratch are reusable per-instruction SeedSets for
	// the fixpoint loops. Every consumer (st.union, fieldUnion,
	// SeedSet.Union) only reads the scratch's words, so clearing and
	// reusing one backing array across instructions and functions is
	// observationally identical to allocating a fresh set each time.
	flowScratch SeedSet
	argScratch  SeedSet
}

// analyzedFuncs returns the analyzed function set in program (source)
// order, duplicates dropped. Normalizing the order makes the result a
// pure function of the requested *set* — required for core's memo
// cache, which keys on the sorted list — and fixes the duplicate-name
// case that used to analyze and report a function twice.
func (a *analysis) analyzedFuncs() []*ir.Func {
	var want map[string]bool
	if len(a.opts.Functions) > 0 {
		want = make(map[string]bool, len(a.opts.Functions))
		for _, n := range a.opts.Functions {
			want[n] = true
		}
	}
	out := make([]*ir.Func, 0, len(a.prog.FuncOrder))
	for _, n := range a.prog.FuncOrder {
		if want == nil || want[n] {
			out = append(out, a.prog.Funcs[n])
		}
	}
	return out
}

func (a *analysis) run() {
	a.funcs = a.analyzedFuncs()
	n := len(a.funcs)
	a.fidx = make(map[string]int, n)
	a.states = make([]*funcState, n)
	for i, fn := range a.funcs {
		a.fidx[fn.Name] = i
		a.states[i] = &funcState{fn: fn}
	}
	for i, sd := range a.seeds {
		a.seedRefs = append(a.seedRefs, seedRef{loc: a.locs.id(sd.key()), seed: i, fn: sd.Func})
	}
	a.fieldTaint = make([]SeedSet, a.canons.len())
	a.readers = make(map[int][]int)
	if a.opts.Mode == Inter {
		a.paramIn = make(map[string][]SeedSet)
		a.callers = make(map[string][]int)
	}

	// Dependency-driven worklist: every function is visited once in
	// program order; afterwards a function re-enters the queue only
	// when a global fact it consumes changed. The budget preserves the
	// old MaxIter safety valve (at most MaxIter visits per function).
	maxIter := a.opts.MaxIter
	if maxIter <= 0 {
		maxIter = 32
	}
	budget := maxIter * n
	queue := make([]int, 0, n)
	queued := make([]bool, n)
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < n; i++ {
		enqueue(i)
	}
	head := 0
	for ; head < len(queue) && budget > 0; head++ {
		i := queue[head]
		queued[i] = false
		budget--
		a.dirtyCanons = a.dirtyCanons[:0]
		a.dirtyRet = false
		a.dirtyParams = a.dirtyParams[:0]
		a.analyzeFunc(i)
		for _, c := range a.dirtyCanons {
			for _, r := range a.readers[c] {
				enqueue(r)
			}
		}
		if a.dirtyRet {
			for _, r := range a.callers[a.funcs[i].Name] {
				enqueue(r)
			}
		}
		for _, callee := range a.dirtyParams {
			if j, ok := a.fidx[callee]; ok {
				enqueue(j)
			}
		}
	}
	// Entries past head are distinct still-queued functions (enqueue
	// only appends un-queued indices): the budget ran out before the
	// fixpoint converged.
	if pending := len(queue) - head; pending > 0 {
		a.res.BudgetErr = &BudgetExceeded{Budget: maxIter * n, Pending: pending}
	}

	// Collect sites, writes, and reads in a final reporting pass over
	// the functions in program order.
	for i := range a.funcs {
		a.report(i)
	}
	sort.SliceStable(a.res.Sites, func(i, j int) bool {
		si, sj := a.res.Sites[i], a.res.Sites[j]
		if si.Pos.File != sj.Pos.File {
			return si.Pos.File < sj.Pos.File
		}
		if si.Pos.Line != sj.Pos.Line {
			return si.Pos.Line < sj.Pos.Line
		}
		return si.Pos.Col < sj.Pos.Col
	})
}

// useRefOf resolves one operand's lookup keys to dense ids.
func (a *analysis) useRefOf(l ir.Loc) useRef {
	r := useRef{id: a.locs.id(l.Key()), root: -1, canon: -1}
	if l.IsField() {
		r.root = a.locs.id(l.Var)
	}
	if l.Canon != "" {
		r.canon = a.canons.id(l.Canon)
	}
	return r
}

// initState builds fn's dense state: seed taint, resolved instruction
// operands, and the worklist dependency edges (canonical fields read,
// call edges).
func (a *analysis) initState(idx int) {
	st := a.states[idx]
	fn := st.fn
	// Store seed taint eagerly so Result.SeedsOf reports the initial
	// configuration variables themselves; every later read unions the
	// stored fact, so no per-instruction seed scan is needed.
	for _, ref := range a.seedRefs {
		if ref.fn == "" || ref.fn == fn.Name {
			st.union(ref.loc, NewSeedSet(ref.seed))
		}
	}
	for _, p := range fn.Params {
		st.paramIDs = append(st.paramIDs, a.locs.id(p.Key()))
	}
	seenCanon := make(map[int]bool)
	seenCallee := make(map[string]bool)
	fn.Instrs(func(in *ir.Instr) {
		info := instrInfo{in: in, uses: make([]useRef, len(in.Uses))}
		for i, u := range in.Uses {
			info.uses[i] = a.useRefOf(u)
			if c := info.uses[i].canon; c >= 0 && !seenCanon[c] {
				seenCanon[c] = true
				a.readers[c] = append(a.readers[c], idx)
			}
		}
		if in.HasDst {
			info.dst = a.useRefOf(in.Dst)
			info.dstKey = in.Dst.Key()
		}
		for _, callee := range in.Calls {
			if a.sanitize[callee] {
				info.sanitized = true
			}
			if a.opts.Mode == Inter && !seenCallee[callee] {
				seenCallee[callee] = true
				a.callers[callee] = append(a.callers[callee], idx)
			}
		}
		if a.opts.Mode == Inter {
			info.argFlows = a.argFlowsOf(fn, in)
		}
		st.infos = append(st.infos, info)
	})
}

// argFlowsOf resolves every call expression inside in to its callee
// and per-argument locations. Argument/parameter matching is
// positional.
func (a *analysis) argFlowsOf(fn *ir.Func, in *ir.Instr) []argFlow {
	if len(in.Calls) == 0 || in.Expr == nil {
		return nil
	}
	var out []argFlow
	minicc.WalkExpr(in.Expr, func(x minicc.Expr) bool {
		call, ok := x.(*minicc.Call)
		if !ok {
			return true
		}
		callee, ok := a.prog.Funcs[call.Fun]
		if !ok {
			return true
		}
		af := argFlow{callee: call.Fun}
		for i, arg := range call.Args {
			if i >= len(callee.Params) {
				break
			}
			locs := a.locsInExpr(fn, arg)
			refs := make([]useRef, len(locs))
			for j, l := range locs {
				refs[j] = a.useRefOf(l)
			}
			af.args = append(af.args, refs)
		}
		out = append(out, af)
		return true
	})
	return out
}

// unionLocTaint unions the current taint of u into dst without
// cloning: the local fact, the canonical store, and — for field reads
// through a tainted root (e.g. cfg->size where cfg is the tainted
// options struct) — the root's taint.
func (a *analysis) unionLocTaint(dst *SeedSet, st *funcState, u useRef) {
	dst.Union(st.at(u.id))
	if u.canon >= 0 {
		dst.Union(a.fieldAt(u.canon))
	}
	if u.root >= 0 {
		dst.Union(st.at(u.root))
	}
}

// fieldAt returns the global store's taint for a canonical field id.
func (a *analysis) fieldAt(id int) SeedSet {
	if id < len(a.fieldTaint) {
		return a.fieldTaint[id]
	}
	return SeedSet{}
}

// fieldUnion merges s into the global store, reporting growth.
func (a *analysis) fieldUnion(id int, s SeedSet) bool {
	for len(a.fieldTaint) <= id {
		a.fieldTaint = append(a.fieldTaint, SeedSet{})
	}
	return a.fieldTaint[id].Union(s)
}

// analyzeFunc runs gen-only propagation over fn's instructions to a
// local fixpoint, recording changed global facts in the dirty sets.
func (a *analysis) analyzeFunc(idx int) {
	st := a.states[idx]
	if !st.inited {
		a.initState(idx)
		st.inited = true
	}
	fn := st.fn
	// In inter mode, merge caller-provided parameter taint.
	if a.opts.Mode == Inter {
		if ins, ok := a.paramIn[fn.Name]; ok {
			for i, id := range st.paramIDs {
				if i < len(ins) {
					st.union(id, ins[i])
				}
			}
		}
	}
	for iter := 0; iter < 64; iter++ {
		changed := false
		for ii := range st.infos {
			info := &st.infos[ii]
			in := info.in
			a.flowScratch.Clear()
			flow := &a.flowScratch
			for _, u := range info.uses {
				a.unionLocTaint(flow, st, u)
			}
			// Call results: sanitizers cut the flow; in inter mode,
			// callee return summaries join in.
			if a.opts.Mode == Inter {
				for _, callee := range in.Calls {
					flow.Union(a.funcRet[callee])
				}
			}
			if info.sanitized {
				flow.Clear()
			}
			switch in.Op {
			case ir.OpAssign:
				if flow.Empty() {
					continue
				}
				if st.union(info.dst.id, *flow) {
					changed = true
					flow.ForEach(func(id int) {
						a.addTrace(id, in.Pos)
					})
					if cur := st.at(info.dst.id); cur.Len() >= 2 {
						mk := fn.Name + "\x00" + info.dstKey
						mcur := a.res.Multi[mk]
						mcur.Union(cur)
						a.res.Multi[mk] = mcur
					}
				}
				if info.dst.canon >= 0 {
					if a.fieldUnion(info.dst.canon, *flow) {
						a.dirtyCanons = append(a.dirtyCanons, info.dst.canon)
					}
				}
			case ir.OpCall:
				if a.opts.Mode == Inter {
					a.propagateCall(st, info)
				}
			case ir.OpReturn:
				if a.opts.Mode == Inter && !flow.Empty() {
					cur := a.funcRet[fn.Name]
					if cur.Union(*flow) {
						a.funcRet[fn.Name] = cur
						a.dirtyRet = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Post-pass: assignment instructions may themselves contain calls
	// (x = parse_size(arg)); in inter mode propagate arg taint into
	// callee params.
	if a.opts.Mode == Inter {
		for ii := range st.infos {
			if len(st.infos[ii].argFlows) > 0 {
				a.propagateCall(st, &st.infos[ii])
			}
		}
	}
}

// propagateCall pushes argument taint into callee parameter slots.
func (a *analysis) propagateCall(st *funcState, info *instrInfo) {
	for fi := range info.argFlows {
		af := &info.argFlows[fi]
		callee := a.prog.Funcs[af.callee]
		ins := a.paramIn[af.callee]
		for len(ins) < len(callee.Params) {
			ins = append(ins, SeedSet{})
		}
		changed := false
		for i, refs := range af.args {
			a.argScratch.Clear()
			for _, r := range refs {
				a.unionLocTaint(&a.argScratch, st, r)
			}
			if ins[i].Union(a.argScratch) {
				changed = true
			}
		}
		a.paramIn[af.callee] = ins
		if changed {
			a.dirtyParams = append(a.dirtyParams, af.callee)
		}
	}
}

// locsInExpr mirrors the ir builder's location extraction for an
// arbitrary expression in fn's scope.
func (a *analysis) locsInExpr(fn *ir.Func, e minicc.Expr) []ir.Loc {
	var out []ir.Loc
	minicc.WalkExpr(e, func(x minicc.Expr) bool {
		switch v := x.(type) {
		case *minicc.Ident:
			out = append(out, ir.Loc{Var: v.Name})
		case *minicc.Member:
			root, path, ok := minicc.MemberPath(v)
			if ok {
				l := ir.Loc{Var: root, Path: joinPath(path)}
				l.Canon = canonOf(a.prog, fn, root, path)
				out = append(out, l)
				return false
			}
		}
		return true
	})
	return out
}

func joinPath(p []string) string {
	out := ""
	for i, s := range p {
		if i > 0 {
			out += "."
		}
		out += s
	}
	return out
}

// canonOf resolves root.path to a canonical struct field using fn's
// variable types (the exported twin of ir's internal resolution).
func canonOf(prog *ir.Program, fn *ir.Func, root string, path []string) string {
	if len(path) == 0 {
		return ""
	}
	t, ok := fn.VarTypes[root]
	if !ok {
		return ""
	}
	for i := 0; i < len(path); i++ {
		if !t.IsStruct {
			return ""
		}
		def, ok := prog.Structs[t.Name]
		if !ok {
			return ""
		}
		idx := def.FieldIndex(path[i])
		if idx < 0 {
			return ""
		}
		if i == len(path)-1 {
			return def.Tag + "." + path[i]
		}
		t = def.Fields[idx].Type
	}
	return ""
}

func (a *analysis) addTrace(seed int, pos minicc.Pos) {
	tr := a.res.Traces[seed]
	for _, p := range tr {
		if p == pos {
			return
		}
	}
	a.res.Traces[seed] = append(tr, pos)
}

// report performs the final collection pass over fn using the fixpoint
// taint facts, and materializes the function's public Taint map from
// the dense state.
func (a *analysis) report(idx int) {
	st := a.states[idx]
	fn := st.fn
	t := make(map[string]SeedSet)
	for id, s := range st.taint {
		if !s.Empty() {
			t[a.locs.keyOf(id)] = s
		}
	}
	a.res.Taint[fn.Name] = t

	taintOf := func(u useRef) SeedSet {
		var s SeedSet
		a.unionLocTaint(&s, st, u)
		return s
	}
	for ii := range st.infos {
		info := &st.infos[ii]
		in := info.in
		// Record canonical reads.
		for _, u := range in.Uses {
			if u.Canon != "" {
				a.res.FieldReads = append(a.res.FieldReads, FieldRead{
					Canon: u.Canon, Func: fn.Name, Pos: in.Pos,
					InBranch: in.Op == ir.OpBranch,
				})
			}
		}
		switch in.Op {
		case ir.OpAssign:
			if in.Dst.Canon != "" {
				var flow SeedSet
				for _, u := range info.uses {
					a.unionLocTaint(&flow, st, u)
				}
				if !flow.Empty() {
					a.res.FieldWrites = append(a.res.FieldWrites, FieldWrite{
						Canon: in.Dst.Canon, Seeds: flow, Func: fn.Name, Pos: in.Pos,
					})
				}
			}
		case ir.OpBranch:
			lt := make(map[string]SeedSet)
			co := make(map[string]string)
			any := false
			for i, u := range in.Uses {
				s := taintOf(info.uses[i])
				k := u.Key()
				lt[k] = s
				co[k] = u.Canon
				if !s.Empty() {
					any = true
				}
				// Branches on shared metadata fields are sites even
				// without local taint: the cross-component join
				// supplies the writer's taint later.
				if u.Canon != "" {
					any = true
				}
			}
			if any {
				keys := make([]string, 0, len(lt))
				for k := range lt {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				plain := append([]string(nil), keys...)
				sort.SliceStable(plain, func(i, j int) bool {
					ci, cj := co[plain[i]] != "", co[plain[j]] != ""
					return ci != cj && !ci
				})
				a.res.Sites = append(a.res.Sites, Site{
					Func: fn.Name, Expr: in.Expr, Pos: in.Pos,
					LocTaint: lt, CanonOf: co,
					Keys: keys, PlainFirstKeys: plain,
				})
			}
		}
	}
}
