// Package concrashck implements ConCrashCk, the fourth application of
// the extracted dependency model: it sweeps the cross-product of
// {dependency-violating configurations from ConHandleCk's catalog} ×
// {enumerated crash/fault points} through the simulated
// mke2fs → mount → resize2fs → e2fsck pipeline and classifies how the
// ecosystem recovers.
//
// ConHandleCk (§4.2) assumes a perfectly reliable device; its one
// silent corruption (Figure 1) is purely configuration-induced.
// ConCrashCk injects faults via internal/faultdev — crash points, torn
// writes, bit flips, transient read errors — at every interesting
// operation of the resize stage, then models real-world recovery:
//
//   - if the pipeline claimed success, the next boot runs e2fsck -p,
//     which trusts the clean flag (the silent-corruption window);
//   - if the pipeline visibly failed, the operator runs e2fsck -f -y,
//     escalating to a backup superblock when the primary is gone.
//
// Each trial's outcome is one of four verdicts: Clean (nothing to do),
// Repaired (fsck detected and fixed the damage), SilentCorruption
// (the ecosystem claimed success over an inconsistent image), or
// CrashLoop (recovery itself failed to converge).
//
// The sweep fans out through internal/sched and every random choice
// flows from a prng.Derive-split seed, so the report is byte-identical
// for any -parallel worker count and fully replayable from its seed.
package concrashck

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"fsdep/internal/checkpoint"
	"fsdep/internal/depmodel"
	"fsdep/internal/e2fsck"
	"fsdep/internal/faultdev"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
	"fsdep/internal/prng"
	"fsdep/internal/resize2fs"
	"fsdep/internal/sched"
)

// Verdict classifies how the ecosystem came out of one faulted run.
type Verdict uint8

// Trial verdicts.
const (
	// VClean: the persisted state is consistent and needed no repair.
	VClean Verdict = iota + 1
	// VRepaired: e2fsck detected the damage and fully repaired it.
	VRepaired
	// VSilentCorruption: the ecosystem reported success (or fsck
	// skipped on a clean flag) while the image is inconsistent.
	VSilentCorruption
	// VCrashLoop: recovery itself failed — fsck errored or could not
	// converge, the admin is rebooting in circles.
	VCrashLoop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VClean:
		return "clean"
	case VRepaired:
		return "detected-repaired"
	case VSilentCorruption:
		return "silent-corruption"
	case VCrashLoop:
		return "crash-loop"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// FaultMode selects the fault family injected into a trial.
type FaultMode uint8

// Sweep fault modes.
const (
	// FaultNone is the control trial: the pipeline runs to completion.
	FaultNone FaultMode = iota
	// FaultCrash stops persistence at the crash point.
	FaultCrash
	// FaultTorn persists a partial sector prefix of the crash write.
	FaultTorn
	// FaultFlip persists the crash write with flipped bits.
	FaultFlip
	// FaultReadErr makes one read fail transiently.
	FaultReadErr
)

// String names the mode.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultTorn:
		return "torn"
	case FaultFlip:
		return "flip"
	case FaultReadErr:
		return "read-err"
	default:
		return fmt.Sprintf("FaultMode(%d)", uint8(m))
	}
}

// Scenario is one dependency-violating (or control) configuration run
// through the faulted pipeline.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// DepKey identifies the violated dependency ("" for controls).
	DepKey string
	// Features is the mke2fs -O list.
	Features []string
	// DeviceMB sizes the backing device.
	DeviceMB int64
	// GrowBlocks is how far resize2fs expands the file system.
	GrowBlocks uint32
	// FixedResize applies the upstream Figure-1 fix to resize2fs.
	FixedResize bool
}

// Scenarios returns the built-in catalog: the Figure-1 violation in
// both buggy and fixed form, two more dependency-violating layouts,
// and a default-configuration control.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:       "figure1-sparse_super2-buggy",
			DepKey:     "ccd-behavioral|resize2fs.|mke2fs.sparse_super2|behavioral",
			Features:   []string{"sparse_super2"},
			DeviceMB:   16,
			GrowBlocks: 8192,
		},
		{
			Name:        "figure1-sparse_super2-fixed",
			DepKey:      "ccd-behavioral|resize2fs.|mke2fs.sparse_super2|behavioral",
			Features:    []string{"sparse_super2"},
			DeviceMB:    16,
			GrowBlocks:  8192,
			FixedResize: true,
		},
		{
			Name:       "no-resize_inode-headroom",
			DepKey:     "ccd-value|resize2fs.new_size|mke2fs.resize_inode|behavioral",
			Features:   []string{"^resize_inode"},
			DeviceMB:   16,
			GrowBlocks: 8192,
		},
		{
			Name:       "meta_bg-layout",
			DepKey:     "cpd-control|mke2fs.resize_inode|mke2fs.meta_bg|control",
			Features:   []string{"meta_bg", "^resize_inode"},
			DeviceMB:   16,
			GrowBlocks: 8192,
		},
		{
			Name:       "default-control",
			DepKey:     "",
			Features:   nil,
			DeviceMB:   16,
			GrowBlocks: 8192,
		},
	}
}

// ScenariosFor filters the catalog by an extracted dependency set:
// scenarios violating a dependency the analyzer actually extracted,
// plus the controls (empty DepKey), which always run. A nil set keeps
// the whole catalog.
func ScenariosFor(deps *depmodel.Set) []Scenario {
	all := Scenarios()
	if deps == nil {
		return all
	}
	out := make([]Scenario, 0, len(all))
	for _, sc := range all {
		if sc.DepKey == "" || deps.ContainsKey(sc.DepKey) {
			out = append(out, sc)
		}
	}
	return out
}

// Options configures a sweep. The zero value gives the defaults.
type Options struct {
	// Seed is the sweep's base randomness (0 = prng.DefaultSeed).
	Seed uint64
	// MaxPointsPerMode caps the enumerated fault points per fault mode
	// and scenario (0 = 16). When a stage performs more operations,
	// points are stride-sampled deterministically.
	MaxPointsPerMode int
	// Modes restricts the injected fault families (nil = all four).
	Modes []FaultMode
	// ReadRetries bounds how many times a trial re-runs the resize
	// stage after a transient read error, so a transient fault is
	// distinguished from a real verdict. The schedule is fixed — retry
	// immediately, no wall-clock backoff — keeping trials replayable.
	// 0 = default (2); negative = retries disabled.
	ReadRetries int
}

func (o Options) maxPoints() int {
	if o.MaxPointsPerMode <= 0 {
		return 16
	}
	return o.MaxPointsPerMode
}

func (o Options) modes() []FaultMode {
	if len(o.Modes) == 0 {
		return []FaultMode{FaultCrash, FaultTorn, FaultFlip, FaultReadErr}
	}
	return o.Modes
}

func (o Options) readRetries() int {
	switch {
	case o.ReadRetries < 0:
		return 0
	case o.ReadRetries == 0:
		return 2
	default:
		return o.ReadRetries
	}
}

// Trial is one executed (scenario, fault) combination.
type Trial struct {
	// Scenario and DepKey echo the configuration under test.
	Scenario string
	DepKey   string
	// Mode and Point locate the injected fault: Point is the 1-based
	// mutating-op index for crash families, the 1-based read-op index
	// for FaultReadErr, and 0 for the FaultNone control.
	Mode  FaultMode
	Point uint64
	// Verdict classifies the recovery outcome; Detail explains it.
	Verdict Verdict
	Detail  string
	// StageErr records how the faulted resize stage failed ("" when it
	// claimed success).
	StageErr string
	// Retries counts how many times the resize stage was re-run after
	// a transient read error before the verdict was taken.
	Retries int
}

// Row aggregates one scenario's robustness.
type Row struct {
	Scenario string
	DepKey   string
	Trials   int
	// Per-verdict counts.
	Clean, Repaired, Silent, CrashLoop int
}

// Report is the full sweep outcome, in deterministic order.
type Report struct {
	Trials []Trial
	Rows   []Row
	// WritePoints and ReadPoints record the per-scenario stage op
	// counts the enumeration sampled from.
	WritePoints map[string]uint64
	ReadPoints  map[string]uint64
}

// Silent returns the silent-corruption trials.
func (r *Report) Silent() []Trial {
	var out []Trial
	for _, t := range r.Trials {
		if t.Verdict == VSilentCorruption {
			out = append(out, t)
		}
	}
	return out
}

// RowFor returns the aggregate row for a scenario name.
func (r *Report) RowFor(name string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Scenario == name {
			return row, true
		}
	}
	return Row{}, false
}

// prep is a scenario's precomputed pre-resize state.
type prep struct {
	sc        Scenario
	snapshot  *fsim.Image // device image after mkfs + workload + unmount
	target    uint32      // resize2fs size argument in blocks
	backupBlk uint32      // backup superblock block for -b escalation (0 = none)
	writeOps  uint64      // mutating ops the fault-free resize stage performs
	readOps   uint64      // read ops the fault-free resize stage performs
	stageErr  string      // fault-free stage failure, if any
}

// prepare builds the pre-resize snapshot: mkfs with the scenario's
// (possibly dependency-violating) features, a small workload through a
// mount, and a clean unmount. Faults are injected only from the resize
// stage on — the crash window the Figure-1 dependency lives in.
func prepare(sc Scenario) (*prep, error) {
	dev := fsim.GetDevice(sc.DeviceMB << 20)
	defer fsim.PutDevice(dev)
	if _, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024, Features: sc.Features}); err != nil {
		return nil, fmt.Errorf("concrashck: %s: mkfs: %w", sc.Name, err)
	}
	m, err := mountsim.Do(dev, mountsim.Options{})
	if err != nil {
		return nil, fmt.Errorf("concrashck: %s: mount: %w", sc.Name, err)
	}
	dir, err := m.Mkdir(fsim.RootIno, "data")
	if err != nil {
		return nil, fmt.Errorf("concrashck: %s: workload: %w", sc.Name, err)
	}
	for i := 0; i < 4; i++ {
		ino, err := m.Create(dir, fmt.Sprintf("f%02d", i))
		if err != nil {
			return nil, fmt.Errorf("concrashck: %s: workload: %w", sc.Name, err)
		}
		payload := make([]byte, 600*(i+1))
		for j := range payload {
			payload[j] = byte(i ^ j)
		}
		if err := m.Write(ino, payload); err != nil {
			return nil, fmt.Errorf("concrashck: %s: workload: %w", sc.Name, err)
		}
	}
	if err := m.Unmount(); err != nil {
		return nil, fmt.Errorf("concrashck: %s: unmount: %w", sc.Name, err)
	}

	fs, err := fsim.Open(dev)
	if err != nil {
		return nil, fmt.Errorf("concrashck: %s: reopen: %w", sc.Name, err)
	}
	p := &prep{
		sc:       sc,
		snapshot: dev.Snapshot(),
		target:   fs.SB.BlocksCount + sc.GrowBlocks,
	}
	for gi := uint32(1); gi < fs.SB.GroupCount(); gi++ {
		if fs.SB.HasSuperBackup(gi) {
			p.backupBlk = fs.GroupMetaOf(gi).SuperBlk
			break
		}
	}

	// Reference pass: count the fault-free resize stage's operations;
	// the fault points are enumerated over these counters.
	refBase := restore(p.snapshot)
	defer fsim.PutDevice(refBase)
	ref := faultdev.Wrap(refBase, faultdev.Plan{})
	if err := resizeStage(ref, p); err != nil {
		p.stageErr = err.Error()
	}
	p.writeOps, p.readOps = ref.Writes(), ref.Reads()
	return p, nil
}

// restore clones a snapshot into a pooled device. The arena clears the
// pages the previous trial wrote and copies in the snapshot's pages, so
// a recycled device replays the trial byte-identically to a fresh
// allocation.
func restore(snapshot *fsim.Image) *fsim.MemDevice {
	return fsim.LoadDevice(snapshot)
}

// resizeStage runs the faulted stage: resize2fs growing the file
// system to the scenario target.
func resizeStage(dev fsim.Device, p *prep) error {
	_, err := resize2fs.Run(dev, resize2fs.Options{
		Size:            p.target,
		FixedFreeBlocks: p.sc.FixedResize,
	})
	return err
}

// samplePoints enumerates up to max 1-based points from [1, total],
// deterministically stride-sampled and always including 1 and total.
func samplePoints(total uint64, max int) []uint64 {
	if total == 0 || max <= 0 {
		return nil
	}
	if total <= uint64(max) {
		pts := make([]uint64, 0, total)
		for p := uint64(1); p <= total; p++ {
			pts = append(pts, p)
		}
		return pts
	}
	pts := make([]uint64, 0, max)
	last := uint64(0)
	for i := 0; i < max; i++ {
		p := 1 + i*int(total-1)/(max-1)
		if up := uint64(p); up != last {
			pts = append(pts, up)
			last = up
		}
	}
	return pts
}

// spec is one trial to execute.
type spec struct {
	prepIdx int
	mode    FaultMode
	point   uint64
}

// SweepParallel runs the cross-product of scenarios × fault points
// concurrently under sopts. Each trial restores its own snapshot clone
// and derives its own prng sub-seed, and trials are collected in
// enumeration order, so the report is byte-identical for any worker
// count.
func SweepParallel(scs []Scenario, opts Options, sopts sched.Options) (*Report, error) {
	return SweepCheckpointed(scs, opts, sopts, nil)
}

// key is the trial's deterministic checkpoint signature: scenario ⊕
// fault plan ⊕ seed. It includes the scenario's full shape (not just
// its name), its position (the derived plan seed depends on it), and
// the retry budget — everything that can change the journaled result.
func (s spec) key(p *prep, opts Options) string {
	sc := p.sc
	return fmt.Sprintf("ccc1|%s|%v|%d|%d|%v|%d|%x|%d|%d|%d",
		sc.Name, sc.Features, sc.DeviceMB, sc.GrowBlocks, sc.FixedResize,
		s.prepIdx, opts.Seed, s.mode, s.point, opts.readRetries())
}

// SweepCheckpointed is SweepParallel with a resume journal: finished
// trials found in j are replayed instead of re-executed, new trials
// are journaled as they complete, and the report is byte-identical to
// an uninterrupted run. A nil journal runs everything.
func SweepCheckpointed(scs []Scenario, opts Options, sopts sched.Options, j *checkpoint.Journal) (*Report, error) {
	preps := make([]*prep, 0, len(scs))
	for _, sc := range scs {
		p, err := prepare(sc)
		if err != nil {
			return nil, err
		}
		preps = append(preps, p)
	}

	var specs []spec
	for pi, p := range preps {
		specs = append(specs, spec{prepIdx: pi, mode: FaultNone})
		for _, mode := range opts.modes() {
			total := p.writeOps
			if mode == FaultReadErr {
				total = p.readOps
			}
			for _, pt := range samplePoints(total, opts.maxPoints()) {
				specs = append(specs, spec{prepIdx: pi, mode: mode, point: pt})
			}
		}
	}

	trials, err := sched.Map(sopts, specs, func(_ int, s spec) (Trial, error) {
		return checkpoint.Do(j, s.key(preps[s.prepIdx], opts), func() (Trial, error) {
			return runTrial(preps[s.prepIdx], s, opts), nil
		})
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Trials:      trials,
		WritePoints: make(map[string]uint64, len(preps)),
		ReadPoints:  make(map[string]uint64, len(preps)),
	}
	for _, p := range preps {
		rep.WritePoints[p.sc.Name] = p.writeOps
		rep.ReadPoints[p.sc.Name] = p.readOps
		rep.Rows = append(rep.Rows, Row{Scenario: p.sc.Name, DepKey: p.sc.DepKey})
	}
	for _, t := range trials {
		for i := range rep.Rows {
			if rep.Rows[i].Scenario != t.Scenario {
				continue
			}
			rep.Rows[i].Trials++
			switch t.Verdict {
			case VClean:
				rep.Rows[i].Clean++
			case VRepaired:
				rep.Rows[i].Repaired++
			case VSilentCorruption:
				rep.Rows[i].Silent++
			case VCrashLoop:
				rep.Rows[i].CrashLoop++
			}
		}
	}
	return rep, nil
}

// plan translates a trial spec into a faultdev plan.
func (s spec) plan(seed uint64, prepIdx int) faultdev.Plan {
	p := faultdev.Plan{
		Seed: prng.Derive(seed, uint64(prepIdx), uint64(s.mode), s.point),
	}
	switch s.mode {
	case FaultCrash:
		p.CrashAtWrite, p.Mode = s.point, faultdev.CrashDrop
	case FaultTorn:
		p.CrashAtWrite, p.Mode = s.point, faultdev.CrashTorn
	case FaultFlip:
		p.CrashAtWrite, p.Mode = s.point, faultdev.CrashFlip
		p.FlipBits = 2
	case FaultReadErr:
		p.FailReads = []uint64{s.point}
	}
	return p
}

// runTrial executes one faulted stage plus recovery and classifies it.
func runTrial(p *prep, s spec, opts Options) Trial {
	tr := Trial{Scenario: p.sc.Name, DepKey: p.sc.DepKey, Mode: s.mode, Point: s.point}
	base := restore(p.snapshot)
	defer fsim.PutDevice(base)
	fdev := faultdev.Wrap(base, s.plan(opts.Seed, s.prepIdx))
	stageErr := resizeStage(fdev, p)
	// A transient read error is an operator-retries situation, not a
	// verdict: re-run the stage on the same device (the fault fires
	// once) up to the fixed retry budget. No wall-clock is involved, so
	// the trial stays replayable.
	for stageErr != nil && errors.Is(stageErr, faultdev.ErrTransientRead) && tr.Retries < opts.readRetries() {
		tr.Retries++
		stageErr = resizeStage(fdev, p)
	}
	if stageErr != nil {
		tr.StageErr = stageErr.Error()
	}
	// Recovery happens on the *persisted* state: the raw underlying
	// device, as after a reboot.
	tr.Verdict, tr.Detail = classify(base, stageErr != nil, p.backupBlk)
	return tr
}

// audit ground-truths the persisted state with fsim's full
// consistency check.
func audit(dev fsim.Device) ([]fsim.Problem, error) {
	fs, err := fsim.Open(dev)
	if err != nil {
		return nil, err
	}
	return fs.Audit(), nil
}

// classify models recovery and compares what fsck claims with what the
// ground-truth audit sees.
func classify(dev fsim.Device, stageFailed bool, backupBlk uint32) (Verdict, string) {
	if !stageFailed {
		// The pipeline claimed success, so nothing tells the operator
		// to check: recovery is the boot-time preen pass, which trusts
		// the clean flag — the silent-corruption window.
		rep, err := e2fsck.Run(dev, e2fsck.Options{Preen: true})
		if err == nil && rep.ExitCode != e2fsck.ExitUnfixed {
			probs, aerr := audit(dev)
			if aerr != nil {
				return VCrashLoop, "post-recovery state unreadable: " + aerr.Error()
			}
			switch {
			case len(probs) == 0 && rep.Fixed > 0:
				return VRepaired, fmt.Sprintf("boot fsck repaired %d problems", rep.Fixed)
			case len(probs) == 0:
				return VClean, "pipeline succeeded; image consistent"
			default:
				return VSilentCorruption, fmt.Sprintf(
					"pipeline claimed success, boot fsck trusted the clean flag; %d audit problems, e.g. %s",
					len(probs), probs[0])
			}
		}
		// Preen bailed: the operator is now involved; fall through.
	}

	// Visible failure: the operator runs a full forced check, falling
	// back to a backup superblock when the primary is unreadable.
	rep, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true})
	usedBackup := false
	if err != nil {
		if backupBlk == 0 {
			return VCrashLoop, "forced fsck failed: " + err.Error()
		}
		rep, err = e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true, SuperblockAt: backupBlk})
		if err != nil {
			return VCrashLoop, "forced fsck failed even from the backup superblock: " + err.Error()
		}
		usedBackup = true
	}
	if len(rep.Remaining) > 0 {
		return VCrashLoop, fmt.Sprintf("fsck cannot converge: %d problems remain, e.g. %s",
			len(rep.Remaining), rep.Remaining[0])
	}
	probs, aerr := audit(dev)
	if aerr != nil {
		return VCrashLoop, "post-recovery state unreadable: " + aerr.Error()
	}
	if len(probs) > 0 {
		return VSilentCorruption, fmt.Sprintf("fsck reported success but %d audit problems remain, e.g. %s",
			len(probs), probs[0])
	}
	if len(rep.Problems) > 0 || usedBackup {
		detail := fmt.Sprintf("fsck detected and repaired %d problems", len(rep.Problems))
		if usedBackup {
			detail += " (via backup superblock)"
		}
		return VRepaired, detail
	}
	return VClean, "fault point harmless; image consistent without repair"
}

// Render writes the per-dependency robustness table followed by the
// silent-corruption trials.
func (r *Report) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Scenario\tDependency\tTrials\tClean\tRepaired\tSilent\tCrash-Loop")
	for _, row := range r.Rows {
		dep := row.DepKey
		if dep == "" {
			dep = "(control)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			row.Scenario, dep, row.Trials, row.Clean, row.Repaired, row.Silent, row.CrashLoop)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	silent := r.Silent()
	if len(silent) == 0 {
		fmt.Fprintln(w, "\nno silent corruptions under fault injection")
		return nil
	}
	fmt.Fprintf(w, "\n%d silent corruptions:\n", len(silent))
	for _, t := range silent {
		fmt.Fprintf(w, "  %s %s@%d: %s\n", t.Scenario, t.Mode, t.Point, t.Detail)
	}
	return nil
}
