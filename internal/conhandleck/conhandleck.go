// Package conhandleck implements ConHandleCk (§4.2): it intentionally
// violates extracted configuration dependencies and observes whether
// the FS ecosystem handles the violation gracefully. Each violation is
// executed against the real simulated ecosystem (fsim + utilities),
// and outcomes are classified by observing the system — a rejection is
// graceful, acceptance with a clean post-state is benign, and
// acceptance followed by a failed consistency audit is silent
// corruption. The paper's run found exactly one bad handling case:
// resize2fs corrupting a sparse_super2 file system on expansion
// (Figure 1).
package conhandleck

import (
	"fmt"

	"fsdep/internal/checkpoint"
	"fsdep/internal/depmodel"
	"fsdep/internal/e4defrag"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
	"fsdep/internal/resize2fs"
	"fsdep/internal/sched"
)

// Outcome classifies how the ecosystem handled a violation.
type Outcome uint8

// Violation outcomes.
const (
	// Rejected: the utility refused the configuration with an error —
	// graceful handling.
	Rejected Outcome = iota + 1
	// Benign: the configuration was accepted and the file system
	// stayed consistent.
	Benign
	// SilentCorruption: the configuration was accepted and the
	// post-state fails the consistency audit — bad handling.
	SilentCorruption
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Rejected:
		return "rejected"
	case Benign:
		return "benign"
	case SilentCorruption:
		return "silent-corruption"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Trial is one executed violation.
type Trial struct {
	// DepKey identifies the violated dependency.
	DepKey string
	// Desc describes the violating configuration.
	Desc string
	// Outcome is the observed handling.
	Outcome Outcome
	// Detail carries the error or audit summary.
	Detail string
}

// Report summarizes a ConHandleCk run.
type Report struct {
	Trials []Trial
	// Counts tallies outcomes.
	Counts map[Outcome]int
}

// Corruptions returns the silent-corruption trials (the paper's "bad
// configuration handling" findings; expected: 1).
func (r *Report) Corruptions() []Trial {
	var out []Trial
	for _, t := range r.Trials {
		if t.Outcome == SilentCorruption {
			out = append(out, t)
		}
	}
	return out
}

// driver builds and executes one violation.
type driver struct {
	depKey string
	desc   string
	// fromStudy marks violations taken from the bug-study dataset
	// rather than the analyzer's extraction (the intra-procedural
	// prototype misses most CCDs, §4.3); they always run.
	fromStudy bool
	run       func() (Outcome, string)
}

// mkfsViolation formats with the given params and classifies the
// result. The trial device comes from the fsim arena: checkout is
// zero-filled and exclusive, so a recycled buffer behaves exactly like
// a fresh allocation, and nothing below retains the device past the
// return.
func mkfsViolation(p mke2fs.Params) (Outcome, string) {
	dev := fsim.GetDevice(16 << 20)
	defer fsim.PutDevice(dev)
	res, err := mke2fs.Run(dev, p)
	if err != nil {
		return Rejected, err.Error()
	}
	if probs := res.Fs.Audit(); len(probs) > 0 {
		return SilentCorruption, fmt.Sprintf("%d audit problems", len(probs))
	}
	return Benign, "accepted; file system consistent"
}

// freshFs formats a default fs with the given features and returns the
// device, checked out of the fsim arena. Callers release it with
// fsim.PutDevice once the trial's classification is done.
func freshFs(features ...string) (*fsim.MemDevice, error) {
	dev := fsim.GetDevice(16 << 20)
	_, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024, Features: features})
	if err != nil {
		fsim.PutDevice(dev)
		return nil, err
	}
	return dev, err
}

func auditOutcome(dev fsim.Device) (Outcome, string) {
	fs, err := fsim.Open(dev)
	if err != nil {
		return SilentCorruption, fmt.Sprintf("file system unreadable: %v", err)
	}
	if probs := fs.Audit(); len(probs) > 0 {
		return SilentCorruption, fmt.Sprintf("%d audit problems, e.g. %s", len(probs), probs[0])
	}
	return Benign, "accepted; file system consistent"
}

// drivers enumerates the executable violations, one per extracted
// dependency class the runtime can exercise.
func drivers() []driver {
	return []driver{
		{
			depKey: "sd-value-range|mke2fs.blocksize",
			desc:   "mke2fs -b 512 (below minimum)",
			run:    func() (Outcome, string) { return mkfsViolation(mke2fs.Params{BlockSize: 512}) },
		},
		{
			depKey: "sd-value-range|mke2fs.inode_size",
			desc:   "mke2fs -I 96 (not a legal inode size)",
			run:    func() (Outcome, string) { return mkfsViolation(mke2fs.Params{InodeSize: 96}) },
		},
		{
			depKey: "sd-value-range|mke2fs.reserved_percent",
			desc:   "mke2fs -m 80 (beyond 50%)",
			run:    func() (Outcome, string) { return mkfsViolation(mke2fs.Params{ReservedPercent: 80}) },
		},
		{
			depKey: "sd-value-range|mke2fs.label",
			desc:   "mke2fs -L with a 30-byte label",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{Label: "a-label-way-too-long-for-ext4"})
			},
		},
		{
			depKey: "sd-value-range|mke2fs.blocks_count",
			desc:   "mke2fs with a 10-block file system",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{BlockSize: 1024, BlocksCount: 10})
			},
		},
		{
			depKey: "cpd-control|mke2fs.resize_inode|mke2fs.meta_bg|control",
			desc:   "mke2fs -O meta_bg with resize_inode kept enabled",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{Features: []string{"meta_bg"}})
			},
		},
		{
			depKey: "cpd-control|mke2fs.bigalloc|mke2fs.extent|control",
			desc:   "mke2fs -O bigalloc,^extent",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{Features: []string{"bigalloc", "^extent"}})
			},
		},
		{
			depKey: "cpd-control|mke2fs.cluster_size|mke2fs.bigalloc|control",
			desc:   "mke2fs -C 4096 without bigalloc",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{ClusterSize: 4096})
			},
		},
		{
			depKey: "cpd-control|mke2fs.inline_data|mke2fs.dir_index|control",
			desc:   "mke2fs -O inline_data,^dir_index",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{Features: []string{"inline_data", "^dir_index"}})
			},
		},
		{
			depKey: "cpd-control|mke2fs.backup_bg0|mke2fs.sparse_super2|control",
			desc:   "mke2fs -E backup_bgs without sparse_super2",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{BackupBgs: [2]uint32{1, 3}})
			},
		},
		{
			depKey: "cpd-control|mke2fs.has_journal|mke2fs.journal_dev|control",
			desc:   "mke2fs -O has_journal,journal_dev (internal + external journal)",
			run: func() (Outcome, string) {
				return mkfsViolation(mke2fs.Params{Features: []string{"has_journal", "journal_dev"}})
			},
		},
		{
			depKey: "cpd-control|mount.dax|mount.data|control",
			desc:   "mount -o dax,data=journal",
			run: func() (Outcome, string) {
				dev, err := freshFs("has_journal")
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				_, err = mountsim.Do(dev, mountsim.Options{Dax: true, DeviceDax: true, Data: "journal"})
				if err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
		{
			depKey:    "ccd-behavioral|mount.|mke2fs.has_journal|behavioral",
			desc:      "mount -o data=journal on a journal-less file system",
			fromStudy: true,
			run: func() (Outcome, string) {
				dev, err := freshFs()
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				_, err = mountsim.Do(dev, mountsim.Options{Data: "journal"})
				if err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
		{
			depKey:    "ccd-behavioral|e4defrag.|mke2fs.extent|behavioral",
			desc:      "e4defrag on a file system created without extents",
			fromStudy: true,
			run: func() (Outcome, string) {
				dev, err := freshFs("^extent")
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				m, err := mountsim.Do(dev, mountsim.Options{})
				if err != nil {
					return Rejected, err.Error()
				}
				defer func() { _ = m.Unmount() }()
				if _, err := e4defrag.Run(m, e4defrag.Options{}); err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
		{
			depKey: "ccd-value|resize2fs.new_size|mke2fs.resize_inode|behavioral",
			desc:   "resize2fs grow far beyond the reserved GDT headroom",
			run: func() (Outcome, string) {
				dev, err := freshFs("^resize_inode")
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				fs, err := fsim.Open(dev)
				if err != nil {
					return Rejected, err.Error()
				}
				_, err = resize2fs.Run(dev, resize2fs.Options{Size: fs.SB.BlocksCount * 40})
				if err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
		{
			depKey: "ccd-behavioral|resize2fs.|mke2fs.sparse_super2|behavioral",
			desc:   "resize2fs expanding a sparse_super2 file system (Figure 1)",
			run: func() (Outcome, string) {
				dev, err := freshFs("sparse_super2")
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				fs, err := fsim.Open(dev)
				if err != nil {
					return Rejected, err.Error()
				}
				_, err = resize2fs.Run(dev, resize2fs.Options{Size: fs.SB.BlocksCount + 8192})
				if err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
		{
			depKey: "ccd-value|resize2fs.new_size|mke2fs.blocks_count|behavioral",
			desc:   "resize2fs shrink without a preceding e2fsck",
			run: func() (Outcome, string) {
				dev, err := freshFs()
				if err != nil {
					return Rejected, err.Error()
				}
				defer fsim.PutDevice(dev)
				m, err := mountsim.Do(dev, mountsim.Options{})
				if err != nil {
					return Rejected, err.Error()
				}
				if err := m.Unmount(); err != nil {
					return Rejected, err.Error()
				}
				fs, err := fsim.Open(dev)
				if err != nil {
					return Rejected, err.Error()
				}
				_, err = resize2fs.Run(dev, resize2fs.Options{Size: fs.SB.BlocksCount - 8192})
				if err != nil {
					return Rejected, err.Error()
				}
				return auditOutcome(dev)
			},
		},
	}
}

// RunParallel executes every violation whose dependency appears in
// deps (or all of them when deps is nil) and classifies the outcomes.
// Violations run concurrently, bounded by sopts. Each trial builds its
// own fsim pipeline instance, and trials are collected in driver
// order, so the report is identical for any worker count.
func RunParallel(deps *depmodel.Set, sopts sched.Options) *Report {
	rep, _ := RunCheckpointed(deps, sopts, nil)
	return rep
}

// RunCheckpointed is RunParallel with an optional resume journal:
// violations already journaled replay instead of re-executing, and
// fresh results are journaled as they finish. Because the driver list
// and selection are deterministic, a killed-and-resumed run produces a
// report byte-identical to an uninterrupted one. A nil journal behaves
// exactly like RunParallel.
func RunCheckpointed(deps *depmodel.Set, sopts sched.Options, j *checkpoint.Journal) (*Report, error) {
	var selected []driver
	for _, d := range drivers() {
		if deps != nil && !d.fromStudy && !deps.ContainsKey(d.depKey) {
			continue
		}
		selected = append(selected, d)
	}
	trials, err := sched.Map(sopts, selected, func(_ int, d driver) (Trial, error) {
		return checkpoint.Do(j, "chc1|"+d.depKey+"|"+d.desc, func() (Trial, error) {
			out, detail := d.run()
			return Trial{DepKey: d.depKey, Desc: d.desc, Outcome: out, Detail: detail}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Trials: trials, Counts: make(map[Outcome]int)}
	for _, t := range trials {
		rep.Counts[t.Outcome]++
	}
	return rep, nil
}
