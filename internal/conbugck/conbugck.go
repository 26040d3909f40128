// Package conbugck implements ConBugCk (§4.2): a plugin that replaces
// a test suite's configuration loading and manipulates configurations
// *without violating* the extracted dependencies, so the enhanced
// tests drive deep into the target code under many configuration
// states instead of crashing early on shallow validation errors.
//
// The generator enumerates configuration states from the extracted
// dependency set: numeric parameters sample their extracted valid
// ranges, feature parameters enumerate combinations filtered through
// the extracted cross-parameter constraints. Every generated
// configuration is executed against the simulated ecosystem
// (mkfs → mount → workload → unmount → fsck -f) and the run verifies
// it got past validation.
package conbugck

import (
	"errors"
	"fmt"
	"sort"

	"fsdep/internal/checkpoint"
	"fsdep/internal/depmodel"
	"fsdep/internal/e2fsck"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
	"fsdep/internal/prng"
	"fsdep/internal/sched"
)

// Config is one generated configuration state.
type Config struct {
	// Mkfs holds the creation parameters.
	Mkfs mke2fs.Params
	// Mount holds the mount options.
	Mount mountsim.Options
	// Label describes the state for reports.
	Label string
}

// Generator produces dependency-respecting configurations.
type Generator struct {
	deps *depmodel.Set
	// rng is the shared deterministic generator; runs are reproducible
	// for a given seed.
	rng *prng.Source
}

// NewGenerator builds a generator over the extracted dependencies.
func NewGenerator(deps *depmodel.Set, seed uint64) *Generator {
	return &Generator{deps: deps, rng: prng.New(seed)}
}

// rangeOf returns the extracted valid range for a parameter, with
// fallbacks when only one bound was extracted.
func (g *Generator) rangeOf(comp, param string, defMin, defMax int64) (int64, int64) {
	for _, d := range g.deps.Deps() {
		if d.Kind != depmodel.SDValueRange || d.Source.Component != comp || d.Source.Param != param {
			continue
		}
		min, max := defMin, defMax
		if d.Constraint.Min != nil {
			min = *d.Constraint.Min
		}
		if d.Constraint.Max != nil {
			max = *d.Constraint.Max
		}
		return min, max
	}
	return defMin, defMax
}

// conflictsWith reports whether enabling both features violates an
// extracted cross-parameter control dependency of the "conflicts"
// shape (heuristically: any CPD control between the two).
func (g *Generator) related(comp, p1, p2 string) bool {
	for _, d := range g.deps.Deps() {
		if d.Kind != depmodel.CPDControl || d.Source.Component != comp {
			continue
		}
		a, b := d.Source.Param, d.Target.Param
		if (a == p1 && b == p2) || (a == p2 && b == p1) {
			return true
		}
	}
	return false
}

// featureSets enumerates dependency-respecting feature combinations.
// Base features stay on; each optional feature set is checked against
// the extracted constraints via the runtime validator, which encodes
// the same rules the dependencies describe.
func (g *Generator) featureSets(n int) [][]string {
	optional := [][]string{
		{},
		{"sparse_super2"},
		{"meta_bg", "^resize_inode"},
		{"bigalloc"},
		{"inline_data"},
		{"has_journal"},
		{"64bit"},
		{"sparse_super2", "has_journal"},
		{"bigalloc", "inline_data"},
		{"meta_bg", "^resize_inode", "64bit"},
	}
	var out [][]string
	for i := 0; len(out) < n && i < 4*n; i++ {
		out = append(out, prng.Pick(g.rng, optional))
	}
	return out
}

// Plan generates n configurations that satisfy every extracted
// dependency.
func (g *Generator) Plan(n int) []Config {
	blockSizes := []uint32{1024, 2048, 4096}
	var cfgs []Config
	bsMin, bsMax := g.rangeOf("mke2fs", "blocksize", fsim.MinBlockSize, fsim.MaxBlockSize)
	for _, feats := range g.featureSets(n) {
		bs := prng.Pick(g.rng, blockSizes)
		if int64(bs) < bsMin || int64(bs) > bsMax {
			bs = uint32(bsMin)
		}
		rpMin, rpMax := g.rangeOf("mke2fs", "reserved_percent", 0, 50)
		rp := int(rpMin + int64(g.rng.Next())%(rpMax-rpMin+1))
		p := mke2fs.Params{
			BlockSize:       bs,
			ReservedPercent: rp,
			Features:        feats,
			Label:           fmt.Sprintf("cbk-%d", len(cfgs)),
		}
		mo := mountsim.Options{}
		hasJournal := false
		for _, f := range feats {
			if f == "has_journal" {
				hasJournal = true
			}
		}
		if hasJournal {
			mo.Data = prng.Pick(g.rng, []string{"ordered", "writeback", "journal"})
		}
		cfgs = append(cfgs, Config{
			Mkfs: p, Mount: mo,
			Label: fmt.Sprintf("bs=%d rp=%d feats=%v mount=%+q", bs, rp, feats, mo.Data),
		})
	}
	return cfgs
}

// RunResult is the outcome of executing one configuration.
type RunResult struct {
	Config Config
	// ShallowReject marks configurations the validators refused —
	// the generator's job is to make these zero.
	ShallowReject bool
	// DeepFailure marks runs that failed after validation (real bug
	// territory).
	DeepFailure bool
	// Err carries the failure.
	Err error
}

// Report summarizes an enhanced-suite run.
type Report struct {
	Results []RunResult
	// Shallow and Deep count rejects and post-validation failures.
	Shallow, Deep int
	// ParamsTouched is the set of parameters the run exercised.
	ParamsTouched map[string]bool
}

// ExecuteParallel runs every configuration through the full pipeline,
// concurrently, bounded by sopts. Each configuration drives its own
// fsim pipeline and records coverage into a private map; results and
// coverage merge in plan order, so the report is identical for any
// worker count.
func ExecuteParallel(cfgs []Config, sopts sched.Options) *Report {
	rep, _ := ExecuteCheckpointed(cfgs, sopts, nil)
	return rep
}

// trialRecord is the journal-safe form of one executed configuration:
// RunResult carries an error value, which does not round-trip through
// JSON, so the journal stores its message instead.
type trialRecord struct {
	Shallow bool     `json:"shallow,omitempty"`
	Deep    bool     `json:"deep,omitempty"`
	Err     string   `json:"err,omitempty"`
	Touched []string `json:"touched,omitempty"`
}

// ExecuteCheckpointed is ExecuteParallel with an optional resume
// journal: journaled configurations replay instead of re-executing,
// fresh ones are journaled as they finish. The plan is deterministic
// for a given dependency set and seed, so a killed-and-resumed run
// yields a report byte-identical to an uninterrupted one. A nil
// journal behaves exactly like ExecuteParallel.
func ExecuteCheckpointed(cfgs []Config, sopts sched.Options, j *checkpoint.Journal) (*Report, error) {
	recs, err := sched.Map(sopts, cfgs, func(i int, cfg Config) (trialRecord, error) {
		// The label alone may collide across plan entries; the index
		// pins the record to its position in the enumeration.
		key := fmt.Sprintf("cbc1|%d|%s", i, cfg.Label)
		return checkpoint.Do(j, key, func() (trialRecord, error) {
			touched := make(map[string]bool)
			rec := trialRecord{}
			if err := runOne(cfg, touched); err != nil {
				var pe *mke2fs.ParamError
				var me *mountsim.MountError
				if asErr(err, &pe) || asErr(err, &me) {
					rec.Shallow = true
				} else {
					rec.Deep = true
				}
				rec.Err = err.Error()
			}
			for p := range touched {
				rec.Touched = append(rec.Touched, p)
			}
			sort.Strings(rec.Touched)
			return rec, nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{ParamsTouched: make(map[string]bool)}
	for i, rec := range recs {
		res := RunResult{Config: cfgs[i], ShallowReject: rec.Shallow, DeepFailure: rec.Deep}
		if rec.Err != "" {
			res.Err = errors.New(rec.Err)
		}
		rep.Results = append(rep.Results, res)
		if rec.Shallow {
			rep.Shallow++
		}
		if rec.Deep {
			rep.Deep++
		}
		for _, p := range rec.Touched {
			rep.ParamsTouched[p] = true
		}
	}
	return rep, nil
}

func asErr[T error](err error, target *T) bool {
	for e := err; e != nil; {
		if t, ok := e.(T); ok {
			*target = t
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// runOne executes mkfs → mount → workload → unmount → fsck -f.
func runOne(cfg Config, touched map[string]bool) error {
	dev := fsim.GetDevice(16 << 20)
	defer fsim.PutDevice(dev)
	res, err := mke2fs.Run(dev, cfg.Mkfs)
	if err != nil {
		return err
	}
	touched["blocksize"] = true
	touched["reserved_percent"] = true
	touched["label"] = true
	for _, f := range res.EnabledFeatures {
		touched[f] = true
	}
	m, err := mountsim.Do(dev, cfg.Mount)
	if err != nil {
		return err
	}
	if cfg.Mount.Data != "" {
		touched["data"] = true
	}
	// Deep workload: directories, files, overwrite, delete.
	dir, err := m.Mkdir(fsim.RootIno, "work")
	if err != nil {
		return fmt.Errorf("workload mkdir: %w", err)
	}
	for i := 0; i < 8; i++ {
		f, err := m.Create(dir, fmt.Sprintf("f%02d", i))
		if err != nil {
			return fmt.Errorf("workload create: %w", err)
		}
		payload := make([]byte, 700*(i+1))
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if err := m.Write(f, payload); err != nil {
			return fmt.Errorf("workload write: %w", err)
		}
	}
	if err := m.Unlink(dir, "f03"); err != nil {
		return fmt.Errorf("workload unlink: %w", err)
	}
	if err := m.Unmount(); err != nil {
		return err
	}
	ck, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true})
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	touched["force"] = true
	touched["yes"] = true
	if ck.ExitCode != e2fsck.ExitClean {
		return fmt.Errorf("fsck found problems after clean run: exit %d", ck.ExitCode)
	}
	return nil
}

// CoverageGain compares the enhanced run's parameter coverage against
// a baseline used-parameter list (e.g. the modeled xfstest suite).
func (r *Report) CoverageGain(baseline []string) (baseCount, enhancedCount int, newParams []string) {
	base := make(map[string]bool, len(baseline))
	for _, p := range baseline {
		base[p] = true
	}
	for p := range r.ParamsTouched {
		if !base[p] {
			newParams = append(newParams, p)
		}
	}
	sort.Strings(newParams)
	union := len(base)
	for p := range r.ParamsTouched {
		if !base[p] {
			union++
		}
	}
	return len(base), union, newParams
}
