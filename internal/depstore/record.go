// Record schemas and (de)hydration for the two persisted layers.
//
// Taint results serialize everything the derivation passes consume
// except Site.Expr, which is an AST node and not portable; on load the
// expression is rehydrated by matching (function, position) against
// the recompiled program's branch instructions. The match failing
// means the cached record no longer corresponds to the source that
// produced it (the content-addressed key makes this near-impossible,
// but a hash collision or a hand-edited cache must degrade to a miss,
// not a wrong answer).

package depstore

import (
	"encoding/json"

	"fsdep/internal/depmodel"
	"fsdep/internal/ir"
	"fsdep/internal/minicc"
	"fsdep/internal/taint"
)

// siteRecord is taint.Site minus the AST expression.
type siteRecord struct {
	Func           string                   `json:"func"`
	Pos            minicc.Pos               `json:"pos"`
	LocTaint       map[string]taint.SeedSet `json:"loc_taint"`
	CanonOf        map[string]string        `json:"canon_of"`
	Keys           []string                 `json:"keys"`
	PlainFirstKeys []string                 `json:"plain_first_keys"`
}

// taintRecord is the persisted form of one taint.Result.
type taintRecord struct {
	Taint       map[string]map[string]taint.SeedSet `json:"taint"`
	Sites       []siteRecord                        `json:"sites"`
	FieldWrites []taint.FieldWrite                  `json:"field_writes"`
	FieldReads  []taint.FieldRead                   `json:"field_reads"`
	Traces      map[int][]minicc.Pos                `json:"traces"`
	Seeds       []taint.Seed                        `json:"seeds"`
	Multi       map[string]taint.SeedSet            `json:"multi"`
}

// SaveTaint persists a converged taint result under key. Truncated
// runs (BudgetErr set) are not cached: they are failures on the strict
// path and per-run conditions on the degraded one.
func SaveTaint(s *Store, key string, res *taint.Result) error {
	if s == nil || res == nil || res.BudgetErr != nil {
		return nil
	}
	rec := taintRecord{
		Taint:       res.Taint,
		FieldWrites: res.FieldWrites,
		FieldReads:  res.FieldReads,
		Traces:      res.Traces,
		Seeds:       res.Seeds,
		Multi:       res.Multi,
	}
	for _, site := range res.Sites {
		rec.Sites = append(rec.Sites, siteRecord{
			Func: site.Func, Pos: site.Pos,
			LocTaint: site.LocTaint, CanonOf: site.CanonOf,
			Keys: site.Keys, PlainFirstKeys: site.PlainFirstKeys,
		})
	}
	blob, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	return s.Put(KindTaint, key, blob)
}

// LoadTaint rehydrates a taint result against prog, the compiled
// program the record's key was derived from. Returns (nil, false) on
// any mismatch.
func LoadTaint(s *Store, key string, prog *ir.Program) (*taint.Result, bool) {
	if s == nil {
		return nil, false
	}
	payload, ok := s.Get(KindTaint, key)
	if !ok {
		return nil, false
	}
	var rec taintRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.noteInvalid()
		return nil, false
	}
	res := &taint.Result{
		Taint:       rec.Taint,
		FieldWrites: rec.FieldWrites,
		FieldReads:  rec.FieldReads,
		Traces:      rec.Traces,
		Seeds:       rec.Seeds,
		Multi:       rec.Multi,
	}
	if res.Taint == nil {
		res.Taint = make(map[string]map[string]taint.SeedSet)
	}
	if res.Traces == nil {
		res.Traces = make(map[int][]minicc.Pos)
	}
	if res.Multi == nil {
		res.Multi = make(map[string]taint.SeedSet)
	}
	if len(rec.Sites) > 0 {
		branches := branchIndex(prog)
		for _, sr := range rec.Sites {
			expr, ok := branches[branchKey(sr.Func, sr.Pos)]
			if !ok {
				s.noteInvalid()
				return nil, false
			}
			res.Sites = append(res.Sites, taint.Site{
				Func: sr.Func, Expr: expr, Pos: sr.Pos,
				LocTaint: sr.LocTaint, CanonOf: sr.CanonOf,
				Keys: sr.Keys, PlainFirstKeys: sr.PlainFirstKeys,
			})
		}
	}
	return res, true
}

func branchKey(fn string, pos minicc.Pos) string {
	return fn + "\x00" + pos.String()
}

// branchIndex maps every branch instruction of prog to its condition
// expression.
func branchIndex(prog *ir.Program) map[string]minicc.Expr {
	idx := make(map[string]minicc.Expr)
	for _, fname := range prog.FuncOrder {
		fn := prog.Funcs[fname]
		fn.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpBranch && in.Expr != nil {
				idx[branchKey(fname, in.Pos)] = in.Expr
			}
		})
	}
	return idx
}

// SaveScenario persists a scenario's extracted dependency set.
func SaveScenario(s *Store, key string, deps *depmodel.Set) error {
	if s == nil || deps == nil {
		return nil
	}
	blob, err := json.Marshal(deps)
	if err != nil {
		return err
	}
	return s.Put(KindScenario, key, blob)
}

// LoadScenario rehydrates a scenario's dependency set. The set's JSON
// form preserves insertion order and re-validates every record, so a
// loaded set renders byte-identically to the cold extraction.
func LoadScenario(s *Store, key string) (*depmodel.Set, bool) {
	if s == nil {
		return nil, false
	}
	payload, ok := s.Get(KindScenario, key)
	if !ok {
		return nil, false
	}
	set := depmodel.NewSet()
	if err := json.Unmarshal(payload, set); err != nil {
		s.noteInvalid()
		return nil, false
	}
	return set, true
}
