// Package resize2fs simulates resize2fs(8): offline growing and
// shrinking of fsim file systems.
//
// It reproduces the paper's Figure-1 bug: when the sparse_super2
// feature is enabled and the size parameter exceeds the current file
// system size (an expansion), the buggy code path computes the free
// blocks count for the last group *before* adding the new blocks to
// the group, leaving the group descriptor (and the superblock total)
// inconsistent with the block bitmap — metadata corruption that
// e2fsck later reports as incorrect free counts. The fix is guarded by
// Options.FixedFreeBlocks (default false = ship the bug, as in the
// e2fsprogs release the paper studied).
package resize2fs

import (
	"fmt"

	"fsdep/internal/fsim"
)

// Options is the resize2fs parameter surface.
type Options struct {
	// Size is the requested size in blocks (the positional <size>
	// parameter). 0 means "fill the device".
	Size uint32
	// Force is -f: skip some safety refusals.
	Force bool
	// MinimumOnly is -M: shrink to the minimum possible size.
	MinimumOnly bool
	// FixedFreeBlocks applies the upstream fix for the Figure-1
	// sparse_super2 expansion bug. Default false reproduces the bug.
	FixedFreeBlocks bool
}

// UtilError is a resize2fs rejection naming the parameter at fault.
type UtilError struct {
	Param   string
	Related string
	Msg     string
}

// Error implements error.
func (e *UtilError) Error() string {
	if e.Related != "" {
		return fmt.Sprintf("resize2fs: %s/%s: %s", e.Param, e.Related, e.Msg)
	}
	return fmt.Sprintf("resize2fs: %s: %s", e.Param, e.Msg)
}

// Report summarizes a resize run.
type Report struct {
	// OldBlocks and NewBlocks are the before/after sizes.
	OldBlocks, NewBlocks uint32
	// GroupsAdded/GroupsRemoved count block-group changes.
	GroupsAdded, GroupsRemoved uint32
	// Grew marks an expansion.
	Grew bool
}

// Run resizes the file system on dev to opts.Size blocks.
func Run(dev fsim.Device, opts Options) (*Report, error) {
	fs, err := fsim.Open(dev)
	if err != nil {
		return nil, fmt.Errorf("resize2fs: %w", err)
	}
	sb := fs.SB
	if sb.State&fsim.StateMounted != 0 {
		return nil, &UtilError{Param: "device", Msg: "file system is mounted; resize2fs is offline-only here"}
	}
	if sb.State&fsim.StateErrors != 0 && !opts.Force {
		return nil, &UtilError{Param: "device", Msg: "file system has errors; run e2fsck first"}
	}

	newBlocks := opts.Size
	bs := sb.BlockSize()
	if opts.MinimumOnly {
		newBlocks = minimumBlocks(fs)
	} else if newBlocks == 0 {
		newBlocks = uint32(dev.Size() / int64(bs))
	}
	ratio := sb.ClusterRatio()
	newBlocks -= newBlocks % ratio

	rep := &Report{OldBlocks: sb.BlocksCount, NewBlocks: newBlocks}
	switch {
	case newBlocks == sb.BlocksCount:
		return rep, nil
	case newBlocks > sb.BlocksCount:
		rep.Grew = true
		if err := grow(fs, newBlocks, opts, rep); err != nil {
			return nil, err
		}
	default:
		// Shrinking requires a fresh e2fsck pass: the simulator
		// models "checked since last mount" as MntCount == 0
		// (e2fsck resets the counter, mount increments it).
		if sb.MntCount != 0 && !opts.Force {
			return nil, &UtilError{Param: "size", Related: "e2fsck",
				Msg: "please run e2fsck -f before shrinking"}
		}
		if err := shrink(fs, newBlocks, rep); err != nil {
			return nil, err
		}
	}
	if err := fs.Flush(); err != nil {
		return nil, fmt.Errorf("resize2fs: flushing: %w", err)
	}
	return rep, nil
}

// minimumBlocks estimates the smallest size the fs can shrink to:
// everything up to the last used cluster, rounded up to the cluster.
func minimumBlocks(fs *fsim.Fs) uint32 {
	sb := fs.SB
	last := sb.FirstDataBlock
	var in fsim.Inode
	for ino := uint32(1); ino <= sb.InodesCount; ino++ {
		if err := fs.ReadInodeInto(ino, &in); err != nil || !in.InUse() {
			continue
		}
		for i := uint16(0); i < in.ValidExtents(); i++ {
			e := in.Extents[i]
			if end := e.Start + e.Len; end > last {
				last = end
			}
		}
	}
	// Keep at least the first group's metadata region.
	groups := sb.GroupCount()
	for gi := uint32(0); gi < groups; gi++ {
		m := fs.GroupMetaOf(gi)
		if m.DataFirst > last && gi == 0 {
			last = m.DataFirst
		}
	}
	ratio := sb.ClusterRatio()
	last = (last + ratio - 1) / ratio * ratio
	return last
}

// grow expands the file system to newBlocks.
func grow(fs *fsim.Fs, newBlocks uint32, opts Options, rep *Report) error {
	sb := fs.SB
	bs := sb.BlockSize()
	oldBlocks := sb.BlocksCount
	oldGroups := sb.GroupCount()

	// Capacity check: the descriptor table must fit in the space
	// reserved at mke2fs time (resize_inode), unless meta_bg places
	// descriptors per group. This is the cross-component dependency
	// between resize2fs <size> and mke2fs -O resize_inode.
	newGroups := groupCountFor(sb, newBlocks)
	if !sb.HasIncompat(fsim.IncompatMetaBG) {
		oldGd := (oldGroups*fsim.GroupDescSize + bs - 1) / bs
		capacity := oldGd + uint32(sb.ReservedGdtBlks)
		newGd := (newGroups*fsim.GroupDescSize + bs - 1) / bs
		if newGd > capacity {
			return &UtilError{Param: "size", Related: "resize_inode",
				Msg: fmt.Sprintf("new size needs %d descriptor blocks but only %d are reserved; recreate with more resize_inode headroom or meta_bg", newGd, capacity)}
		}
	}

	if err := fs.Device().Resize(int64(newBlocks) * int64(bs)); err != nil {
		return fmt.Errorf("resize2fs: growing device: %w", err)
	}

	// Step 1: extend the old last group if it was short.
	lastGi := oldGroups - 1
	sb.BlocksCount = newBlocks // group extents derive from the new size

	if opts.FixedFreeBlocks || !sb.HasCompat(fsim.CompatSparseSuper2) {
		// Correct order: add the new blocks to the group (clear the
		// padding bits), then compute the free count.
		if err := fs.ExtendGroupBitmap(lastGi, oldBlocks); err != nil {
			return err
		}
		if err := fs.RecountGroupFree(lastGi); err != nil {
			return err
		}
	} else {
		// BUG (Figure 1): the free count for the last group is
		// calculated before the new blocks are added, so the stale
		// count is stored while the bitmap gains free clusters.
		if err := fs.RecountGroupFree(lastGi); err != nil {
			return err
		}
		if err := fs.ExtendGroupBitmap(lastGi, oldBlocks); err != nil {
			return err
		}
	}

	// Step 2: lay out entirely new groups.
	added, err := fs.AppendGroups(newGroups)
	if err != nil {
		return err
	}
	rep.GroupsAdded = added

	// Step 3: refresh global counters from per-group state.
	fs.RecountSuper()
	return nil
}

func groupCountFor(sb *fsim.Superblock, blocks uint32) uint32 {
	data := blocks - sb.FirstDataBlock
	return (data + sb.BlocksPerGroup - 1) / sb.BlocksPerGroup
}

// shrink reduces the file system to newBlocks.
func shrink(fs *fsim.Fs, newBlocks uint32, rep *Report) error {
	sb := fs.SB
	if newBlocks < minimumBlocks(fs) {
		return &UtilError{Param: "size",
			Msg: fmt.Sprintf("%d blocks is below the minimum (%d); data relocation is not supported by the simulator", newBlocks, minimumBlocks(fs))}
	}
	newGroups := groupCountFor(sb, newBlocks)
	oldGroups := sb.GroupCount()

	// No allocated inodes may live in removed groups.
	for gi := newGroups; gi < oldGroups; gi++ {
		if used := sb.InodesPerGroup - fs.GDs[gi].FreeInodesCount; used > 0 {
			return &UtilError{Param: "size",
				Msg: fmt.Sprintf("group %d still holds %d inodes; inode relocation is not supported", gi, used)}
		}
	}
	if err := fs.TruncateGroups(newGroups, newBlocks); err != nil {
		return err
	}
	rep.GroupsRemoved = oldGroups - newGroups
	fs.RecountSuper()
	bs := sb.BlockSize()
	return fs.Device().Resize(int64(newBlocks) * int64(bs))
}
