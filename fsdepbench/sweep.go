package main

import (
	"bytes"
	"strings"
	"time"

	"fsdep/internal/conbugck"
	"fsdep/internal/concrashck"
	"fsdep/internal/conhandleck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/e2fsck"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/resize2fs"
	"fsdep/internal/sched"
)

// The sweep's planned sizes: ConHandleCk's violation catalog over the
// union, ConCrashCk's default enumeration over its catalog, and the
// number of ConBugCk configurations planned per op.
const (
	handleTrials  = 17
	crashTrials   = 270
	conbugConfigs = 8
)

// trialDevice is the size of the checkers' trial devices.
const trialDevice = 16 << 20

// runSweep is the sweep workload: one op runs the three checkers over
// the dependency union, which set-up extracts.
func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	var union *depmodel.Set
	for k := 0; k < setupReps(e); k++ {
		start := time.Now()
		outs, err := core.AnalyzeAll(corpus.Components(), corpus.Scenarios(), core.Options{}, e.sopts)
		if err != nil {
			return nil, err
		}
		u := depmodel.NewSet()
		for _, r := range outs {
			u.AddAll(r.Deps.Deps())
		}
		o.setup = append(o.setup, time.Since(start))
		b, err := encodeUnion(u.Sorted())
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, e.golden.depsJSON) {
			return nil, wrongf("extracted union differs from deps_golden.json")
		}
		union = u
	}
	crashScs := concrashck.ScenariosFor(union)
	trials := 0
	var crashMs []float64
	e.loop(o, 1, func(i int, tr *tracer) (time.Duration, error) {
		root := tr.begin(0, i, "op", false)
		start := time.Now()
		var hk *conhandleck.Report
		dh := tr.call(root, i, "conhandleck.RunParallel", false, func() { hk = conhandleck.RunParallel(union, e.sopts) })
		var cr *concrashck.Report
		var err error
		dc := tr.call(root, i, "concrashck.SweepParallel", false, func() {
			cr, err = concrashck.SweepParallel(crashScs, concrashck.Options{}, e.sopts)
		})
		var bug *conbugck.Report
		db := tr.call(root, i, "conbugck.Plan+ExecuteParallel", false, func() {
			bug = conbugck.ExecuteParallel(conbugck.NewGenerator(union, e.seed).Plan(conbugConfigs), e.sopts)
		})
		d := time.Since(start)
		tr.end(root)
		if err != nil {
			return d, err
		}
		if err := checkSweep(hk, cr, bug); err != nil {
			return d, err
		}
		trials += len(hk.Trials) + len(cr.Trials) + len(bug.Results)
		crashMs = append(crashMs, ms(dc))
		if e.trace {
			o.sample("conhandleck.sweep_ms", ms(dh))
			o.sample("conhandleck.trials", float64(len(hk.Trials)))
			o.sample("concrashck.sweep_ms", ms(dc))
			o.sample("concrashck.trials", float64(len(cr.Trials)))
			o.sample("conbugck.exec_ms", ms(db))
			o.sample("conbugck.trials", float64(len(bug.Results)))
		}
		if tr != nil {
			sh := tr.begin(0, i, "shadow", true)
			err := probeFsim(o, tr, sh, i)
			tr.end(sh)
			if err != nil {
				return d, err
			}
		}
		return d, nil
	})
	o.metrics["trials_per_s"] = float64(trials) / o.timed.Seconds()
	if e.trace {
		// How much the sweep gains from GOMAXPROCS workers.
		var err error
		d1 := e.tr.call(0, -1, "concrashck.SweepParallel(workers=1)", true, func() {
			_, err = concrashck.SweepParallel(crashScs, concrashck.Options{}, sched.Options{Workers: 1})
		})
		if err != nil {
			return nil, err
		}
		o.metrics["sched.speedup"] = ratio(ms(d1), median(crashMs))
	}
	rss, err := peakRSSMB("self")
	o.rssMB = rss
	return o, err
}

// checkSweep holds a sweep to the paper's findings: ConHandleCk finds
// exactly the Figure-1 silent corruption, ConCrashCk finds silent
// corruption under the buggy resize2fs and none under the fixed one,
// and ConBugCk's dependency-respecting configurations pass every
// shallow check.
func checkSweep(hk *conhandleck.Report, cr *concrashck.Report, bug *conbugck.Report) error {
	if len(hk.Trials) != handleTrials {
		return wrongf("ConHandleCk ran %d trials, want %d", len(hk.Trials), handleTrials)
	}
	if c := hk.Corruptions(); len(c) != 1 || !strings.Contains(c[0].DepKey+c[0].Desc, "sparse_super2") {
		return wrongf("ConHandleCk silent corruptions %v, want only the Figure-1 resize2fs trial", c)
	}
	if len(cr.Trials) != crashTrials {
		return wrongf("ConCrashCk ran %d trials, want %d", len(cr.Trials), crashTrials)
	}
	fixed, ok1 := cr.RowFor("figure1-sparse_super2-fixed")
	buggy, ok2 := cr.RowFor("figure1-sparse_super2-buggy")
	if !ok1 || !ok2 || fixed.Silent != 0 || buggy.Silent == 0 {
		return wrongf("ConCrashCk silent: fixed %d, buggy %d; want 0 and more than 0", fixed.Silent, buggy.Silent)
	}
	if len(bug.Results) != conbugConfigs || bug.Shallow != 0 {
		return wrongf("ConBugCk ran %d configurations with %d shallow rejections, want %d and 0",
			len(bug.Results), bug.Shallow, conbugConfigs)
	}
	return nil
}

// probeFsim times the file-system layers the checkers stand on, as
// shadow calls: a trial-device checkout and return, an audit of a fresh
// default image, and the Figure-1 utilities.
func probeFsim(o *outcome, tr *tracer, parent int64, op int) error {
	const cycles = 16
	cyc := tr.call(parent, op, "fsim.GetDevice+PutDevice", true, func() {
		for k := 0; k < cycles; k++ {
			fsim.PutDevice(fsim.GetDevice(trialDevice))
		}
	})
	o.sample("fsim.device_cycle_us", float64(cyc)/1e3/cycles)

	dev := fsim.GetDevice(trialDevice)
	res, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024})
	if err != nil {
		return err
	}
	var probs []fsim.Problem
	o.sample("fsim.audit_ms", ms(tr.call(parent, op, "fsim.Audit", true, func() { probs = res.Fs.Audit() })))
	fsim.PutDevice(dev)
	if len(probs) != 0 {
		return wrongf("a fresh default image audits with %d problems", len(probs))
	}

	dev = fsim.GetDevice(trialDevice)
	defer fsim.PutDevice(dev)
	o.sample("mke2fs.run_ms", ms(tr.call(parent, op, "mke2fs.Run", true, func() {
		res, err = mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024, Features: []string{"sparse_super2"}})
	})))
	if err != nil {
		return err
	}
	o.sample("resize2fs.run_ms", ms(tr.call(parent, op, "resize2fs.Run", true, func() {
		_, err = resize2fs.Run(dev, resize2fs.Options{Size: res.Fs.SB.BlocksCount + 8192})
	})))
	if err != nil {
		return err
	}
	var ck *e2fsck.Report
	o.sample("e2fsck.run_ms", ms(tr.call(parent, op, "e2fsck.Run", true, func() {
		ck, err = e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true})
	})))
	if err != nil {
		return err
	}
	if ck.ExitCode != e2fsck.ExitFixed {
		return wrongf("e2fsck on the Figure-1 image exited %d, want %d (fixed)", ck.ExitCode, e2fsck.ExitFixed)
	}
	return nil
}
