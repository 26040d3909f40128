package fsim

import (
	"fmt"
	"math"
	"math/bits"
)

// ProblemCode classifies a consistency finding.
type ProblemCode uint8

// Consistency problem codes.
const (
	// PBadSuper: the superblock fails structural sanity.
	PBadSuper ProblemCode = iota + 1
	// PFreeBlocksCount: a group's or the global free-block count
	// disagrees with its bitmap (the Figure-1 corruption signature).
	PFreeBlocksCount
	// PFreeInodesCount: free-inode accounting mismatch.
	PFreeInodesCount
	// PBlockBitmap: bitmap bit disagrees with actual block usage.
	PBlockBitmap
	// PInodeBitmap: bitmap bit disagrees with inode usage.
	PInodeBitmap
	// PExtentRange: an inode maps blocks outside the file system.
	PExtentRange
	// PExtentOverlap: two files claim the same block.
	PExtentOverlap
	// PLinkCount: inode link count disagrees with directory entries.
	PLinkCount
	// PDirStructure: unparsable directory data.
	PDirStructure
	// PUnreachable: an allocated inode is not reachable from root.
	PUnreachable
	// PBackupSuper: a backup superblock is missing or stale.
	PBackupSuper
	// PUsedDirs: bg_used_dirs_count disagrees with reality.
	PUsedDirs
)

var problemNames = map[ProblemCode]string{
	PBadSuper: "bad-superblock", PFreeBlocksCount: "free-blocks-count",
	PFreeInodesCount: "free-inodes-count", PBlockBitmap: "block-bitmap",
	PInodeBitmap: "inode-bitmap", PExtentRange: "extent-range",
	PExtentOverlap: "extent-overlap", PLinkCount: "link-count",
	PDirStructure: "dir-structure", PUnreachable: "unreachable-inode",
	PBackupSuper: "backup-superblock", PUsedDirs: "used-dirs-count",
}

// String names the code.
func (c ProblemCode) String() string {
	if n, ok := problemNames[c]; ok {
		return n
	}
	return fmt.Sprintf("ProblemCode(%d)", uint8(c))
}

// Problem is one consistency finding.
type Problem struct {
	Code ProblemCode
	// Group is the affected block group (or ^uint32(0) when global).
	Group uint32
	// Ino is the affected inode (0 when none).
	Ino uint32
	// Msg is the human-readable description.
	Msg string
	// Want/Got carry the expected and observed values when the
	// problem is a count mismatch.
	Want, Got uint32
}

// NoGroup marks problems not attributable to one group.
const NoGroup = ^uint32(0)

// String renders the problem.
func (p Problem) String() string {
	return fmt.Sprintf("[%s] %s", p.Code, p.Msg)
}

// Audit runs a full consistency check and returns every problem found,
// in a deterministic order. It never modifies the file system; repair
// belongs to e2fsck.
//
// The sweeps audit every trial image, so the audit keeps its state
// dense: the in-use inodes in a slice in inode order with a slot table
// for lookups, and owned blocks and visited inodes in bitmaps. Pass 3
// compares each on-disk bitmap a byte at a time against the bytes the
// layout, the owned blocks and the in-use inodes imply.
func (fs *Fs) Audit() []Problem {
	var probs []Problem
	sb := fs.SB

	// Pass 0: superblock sanity.
	if sb.Magic != Magic {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("bad magic 0x%04x", sb.Magic)})
		return probs
	}
	ratio := sb.ClusterRatio()
	if sb.BlocksPerGroup != 8*sb.BlockSize()*ratio {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("blocks_per_group %d != 8*blocksize*ratio %d",
				sb.BlocksPerGroup, 8*sb.BlockSize()*ratio)})
	}
	wantFirst := uint32(0)
	if sb.BlockSize() == MinBlockSize {
		wantFirst = 1
	}
	if sb.FirstDataBlock != wantFirst {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("first_data_block %d, want %d", sb.FirstDataBlock, wantFirst)})
	}
	groups := sb.GroupCount()
	if uint32(len(fs.GDs)) != groups {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("descriptor table has %d groups, superblock implies %d",
				len(fs.GDs), groups)})
		return probs
	}
	// An inodes_per_group past the inode-bitmap block would have pass 3
	// read every bit beyond that block as set and report each slot, and
	// an inodes_count past the groups' inode tables would have pass 1
	// report every missing inode, one problem each.
	if sb.InodesPerGroup == 0 || sb.InodesPerGroup > 8*sb.BlockSize() {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("inodes_per_group %d outside 1..%d (8 × blocksize)",
				sb.InodesPerGroup, 8*sb.BlockSize())})
		return probs
	}
	if uint64(sb.InodesCount) > uint64(groups)*uint64(sb.InodesPerGroup) {
		probs = append(probs, Problem{Code: PBadSuper, Group: NoGroup,
			Msg: fmt.Sprintf("inodes_count %d exceeds %d groups × %d",
				sb.InodesCount, groups, sb.InodesPerGroup)})
		return probs
	}

	// Pass 1: walk all inodes, collecting the in-use ones in inode
	// order and the blocks their extents own. The walk decodes into one
	// stack inode — the full-table scan is the sweep pipelines' hottest
	// loop, and most slots are free.
	var (
		inodes    []auditIno // in-use inodes, ascending
		owned     numSet     // blocks claimed by an in-use inode
		inodeErrs []Problem
		tmp       Inode
	)
	for ino := uint32(1); ino <= sb.InodesCount; ino++ {
		if err := fs.ReadInodeInto(ino, &tmp); err != nil {
			inodeErrs = append(inodeErrs, Problem{Code: PBadSuper, Group: NoGroup, Ino: ino,
				Msg: fmt.Sprintf("inode %d unreadable: %v", ino, err)})
			continue
		}
		if !tmp.InUse() {
			continue
		}
		inodes = append(inodes, auditIno{ino: ino, in: tmp})
		in := &tmp
		if in.ExtentCount > MaxInlineExtents {
			inodeErrs = append(inodeErrs, Problem{Code: PExtentRange, Group: NoGroup, Ino: ino,
				Msg: fmt.Sprintf("inode %d extent count %d exceeds maximum %d",
					ino, in.ExtentCount, MaxInlineExtents)})
		}
		for i := uint16(0); i < in.ValidExtents(); i++ {
			e := in.Extents[i]
			if e.Len == 0 {
				continue
			}
			if !sb.extentInRange(e) {
				inodeErrs = append(inodeErrs, Problem{Code: PExtentRange, Group: NoGroup, Ino: ino,
					Msg: fmt.Sprintf("inode %d extent [%d,+%d) outside fs (blocks %d)",
						ino, e.Start, e.Len, sb.BlocksCount)})
				continue
			}
			for b := e.Start; b < e.Start+e.Len; b++ {
				if owned.add(b) {
					inodeErrs = append(inodeErrs, Problem{Code: PExtentOverlap,
						Group: fs.groupOfBlock(b), Ino: ino,
						Msg: fmt.Sprintf("block %d claimed by inodes %d and %d",
							b, firstOwner(inodes, sb, b), ino)})
				}
			}
		}
	}
	probs = append(probs, inodeErrs...)

	// slot maps an inode number to its index in inodes plus one (0: not
	// in use). It is as long as the highest in-use inode number.
	var slot []uint32
	if n := len(inodes); n > 0 {
		slot = make([]uint32, int(inodes[n-1].ino)+1)
	}
	for i := range inodes {
		slot[inodes[i].ino] = uint32(i) + 1
	}
	state := func(ino uint32) *auditIno {
		if ino < uint32(len(slot)) && slot[ino] != 0 {
			return &inodes[slot[ino]-1]
		}
		return nil
	}

	// Pass 2: directory walk from root — connectivity and link counts.
	if root := state(RootIno); root != nil && root.in.IsDir() {
		visited := NewBitmap(make([]byte, (len(inodes)+7)/8), len(inodes)) // by slot
		stack := []uint32{RootIno}
		for len(stack) > 0 {
			ino := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			i := int(slot[ino] - 1)
			if visited.Test(i) {
				continue
			}
			visited.Set(i)
			st := &inodes[i]
			st.reachable = true
			if !st.in.IsDir() {
				continue
			}
			entries, err := fs.ReadDir(ino)
			if err != nil {
				probs = append(probs, Problem{Code: PDirStructure, Group: NoGroup, Ino: ino,
					Msg: fmt.Sprintf("directory %d: %v", ino, err)})
				continue
			}
			for _, e := range entries {
				child := state(e.Ino)
				if child == nil {
					probs = append(probs, Problem{Code: PDirStructure, Group: NoGroup, Ino: ino,
						Msg: fmt.Sprintf("directory %d entry %q points to unallocated inode %d",
							ino, e.Name, e.Ino)})
					continue
				}
				child.links++
				if e.Name != "." && e.Name != ".." && child.in.IsDir() {
					stack = append(stack, e.Ino)
				}
				if e.Name != "." && e.Name != ".." && !child.in.IsDir() {
					child.reachable = true
				}
			}
		}
	} else {
		probs = append(probs, Problem{Code: PDirStructure, Group: NoGroup, Ino: RootIno,
			Msg: "root inode is missing or not a directory"})
	}

	for i := range inodes {
		st := &inodes[i]
		ino := st.ino
		if ino < FirstIno && ino != RootIno {
			continue // reserved inodes are unreferenced by design
		}
		if uint32(st.in.LinksCount) != st.links {
			probs = append(probs, Problem{Code: PLinkCount, Group: NoGroup, Ino: ino,
				Want: st.links, Got: uint32(st.in.LinksCount),
				Msg: fmt.Sprintf("inode %d link count %d, found %d references",
					ino, st.in.LinksCount, st.links)})
		}
		if !st.reachable {
			probs = append(probs, Problem{Code: PUnreachable, Group: NoGroup, Ino: ino,
				Msg: fmt.Sprintf("inode %d allocated but unreachable from root", ino)})
		}
	}

	// Pass 3: bitmaps and free counts per group. Each bitmap's whole
	// bytes are compared with expected bytes built in exp; only a byte
	// that differs is reported bit by bit. The bits past them — a
	// partial last byte, or a group wider than its bitmap block after a
	// bad blocks_per_group — are checked one at a time, where Test reads
	// bits past the block as set.
	bpb := 8 * sb.BlockSize() // bits per bitmap block
	exp := make([]byte, sb.BlockSize())
	next := 0 // first entry of inodes not in an earlier group
	var sumFreeBlocks, sumFreeInodes uint32
	for gi := uint32(0); gi < groups; gi++ {
		m := fs.groupMeta(gi)
		gd := fs.GDs[gi]
		bmap, _, err := fs.blockBitmap(gi)
		if err != nil {
			probs = append(probs, Problem{Code: PBlockBitmap, Group: gi,
				Msg: fmt.Sprintf("group %d block bitmap unreadable: %v", gi, err)})
			continue
		}
		nblocks := sb.GroupBlockCount(gi)
		nclusters := (nblocks + ratio - 1) / ratio
		base := sb.GroupFirstBlock(gi)
		clusterProblem := func(c uint32, inUse, expect bool) {
			probs = append(probs, Problem{Code: PBlockBitmap, Group: gi,
				Msg: fmt.Sprintf("group %d cluster %d (block %d): bitmap=%v, actual=%v",
					gi, c, base+c*ratio, inUse, expect)})
		}

		// The byte-wise head: whole bytes of clusters inside the bitmap
		// block whose blocks stay below 2^32.
		head := min(nclusters, bpb, uint32((math.MaxUint32-uint64(base))/uint64(ratio))) &^ 7
		want := exp[:head/8]
		clear(want)
		if m.DataFirst > base { // metadata clusters start the group
			setPrefix(want, min(uint64(head), (uint64(m.DataFirst-base)+uint64(ratio)-1)/uint64(ratio)))
		}
		end := uint64(base) + uint64(head)*uint64(ratio)
		for k := uint64(base) / 8; k < uint64(len(owned.bm.bits)) && 8*k < end; k++ {
			for w := owned.bm.bits[k]; w != 0; w &= w - 1 {
				if b := 8*k + uint64(bits.TrailingZeros8(w)); b >= uint64(base) && b < end {
					c := (b - uint64(base)) / uint64(ratio)
					want[c/8] |= 1 << (c % 8)
				}
			}
		}
		usedClusters := diffBytes(want, bmap.bits, clusterProblem)
		for c := head; c < nclusters; c++ {
			inUse := bmap.Test(int(c))
			// Expected usage: metadata or any owned block in cluster.
			expect := false
			first := base + c*ratio
			for b := first; b < first+ratio && b < sb.BlocksCount; b++ {
				if b < m.DataFirst || owned.has(b) {
					expect = true
					break
				}
			}
			if inUse != expect {
				clusterProblem(c, inUse, expect)
			}
			if inUse {
				usedClusters++
			}
		}
		freeBlocks := (nclusters - usedClusters) * ratio
		if gd.FreeBlocksCount != freeBlocks {
			probs = append(probs, Problem{Code: PFreeBlocksCount, Group: gi,
				Want: freeBlocks, Got: gd.FreeBlocksCount,
				Msg: fmt.Sprintf("group %d free blocks count %d, bitmap says %d",
					gi, gd.FreeBlocksCount, freeBlocks)})
		}
		sumFreeBlocks += freeBlocks

		ibm, err := fs.inodeBitmap(gi)
		if err != nil {
			probs = append(probs, Problem{Code: PInodeBitmap, Group: gi,
				Msg: fmt.Sprintf("group %d inode bitmap unreadable: %v", gi, err)})
			continue
		}
		ipg := sb.InodesPerGroup
		inodeProblem := func(i uint32, inUse, allocated bool) {
			ino := gi*ipg + i + 1
			probs = append(probs, Problem{Code: PInodeBitmap, Group: gi, Ino: ino,
				Msg: fmt.Sprintf("inode %d: bitmap=%v, actual=%v", ino, inUse, allocated)})
		}

		// Bit i stands for inode gbase+i+1; the head keeps that below
		// 2^32. Every in-use inode lies in a group, so the group's
		// in-use inodes are the next run of the slice.
		gbase := uint64(gi) * uint64(ipg)
		head = min(ipg, bpb, uint32(math.MaxUint32-min(gbase, math.MaxUint32))) &^ 7
		want = exp[:head/8]
		clear(want)
		if gbase < FirstIno-1 { // reserved inode slots stay marked
			setPrefix(want, min(uint64(head), FirstIno-1-gbase))
		}
		dirs := uint32(0)
		for next < len(inodes) && (inodes[next].ino-1)/ipg < gi {
			next++
		}
		for p := next; p < len(inodes); p++ {
			st := &inodes[p]
			i := uint64(st.ino-1) - gbase
			if i >= uint64(head) {
				break
			}
			want[i/8] |= 1 << (i % 8)
			if st.in.IsDir() {
				dirs++
			}
		}
		freeInodes := head - diffBytes(want, ibm.bits, inodeProblem)
		for i := head; i < ipg; i++ {
			ino := gi*ipg + i + 1
			inUse := ibm.Test(int(i))
			st := state(ino)
			allocated := st != nil || ino < FirstIno
			if inUse != allocated {
				inodeProblem(i, inUse, allocated)
			}
			if !inUse {
				freeInodes++
			}
			if st != nil && st.in.IsDir() {
				dirs++
			}
		}
		if gd.FreeInodesCount != freeInodes {
			probs = append(probs, Problem{Code: PFreeInodesCount, Group: gi,
				Want: freeInodes, Got: gd.FreeInodesCount,
				Msg: fmt.Sprintf("group %d free inodes count %d, bitmap says %d",
					gi, gd.FreeInodesCount, freeInodes)})
		}
		sumFreeInodes += freeInodes

		if gd.UsedDirsCount != dirs {
			probs = append(probs, Problem{Code: PUsedDirs, Group: gi,
				Want: dirs, Got: gd.UsedDirsCount,
				Msg: fmt.Sprintf("group %d used dirs count %d, found %d", gi, gd.UsedDirsCount, dirs)})
		}
	}
	if sb.FreeBlocksCount != sumFreeBlocks {
		probs = append(probs, Problem{Code: PFreeBlocksCount, Group: NoGroup,
			Want: sumFreeBlocks, Got: sb.FreeBlocksCount,
			Msg: fmt.Sprintf("superblock free blocks count %d, groups sum to %d",
				sb.FreeBlocksCount, sumFreeBlocks)})
	}
	if sb.FreeInodesCount != sumFreeInodes {
		probs = append(probs, Problem{Code: PFreeInodesCount, Group: NoGroup,
			Want: sumFreeInodes, Got: sb.FreeInodesCount,
			Msg: fmt.Sprintf("superblock free inodes count %d, groups sum to %d",
				sb.FreeInodesCount, sumFreeInodes)})
	}

	// Pass 4: backup superblocks.
	for gi := uint32(1); gi < groups; gi++ {
		if !sb.HasSuperBackup(gi) {
			continue
		}
		m := fs.groupMeta(gi)
		blk, err := fs.ReadBlock(m.SuperBlk)
		if err != nil {
			probs = append(probs, Problem{Code: PBackupSuper, Group: gi,
				Msg: fmt.Sprintf("group %d backup superblock unreadable: %v", gi, err)})
			continue
		}
		bsb, err := DecodeSuperblock(blk)
		if err != nil {
			probs = append(probs, Problem{Code: PBackupSuper, Group: gi,
				Msg: fmt.Sprintf("group %d backup superblock invalid: %v", gi, err)})
			continue
		}
		if bsb.BlocksCount != sb.BlocksCount {
			probs = append(probs, Problem{Code: PBackupSuper, Group: gi,
				Want: sb.BlocksCount, Got: bsb.BlocksCount,
				Msg: fmt.Sprintf("group %d backup superblock stale: blocks %d, primary %d",
					gi, bsb.BlocksCount, sb.BlocksCount)})
		}
	}
	return probs
}

// auditIno is the audit's state for one in-use inode.
type auditIno struct {
	ino       uint32
	in        Inode
	links     uint32 // directory references found
	reachable bool
}

// extentInRange reports whether e lies inside the file system's data
// blocks; the audit claims the blocks of in-range extents only.
func (sb *Superblock) extentInRange(e Extent) bool {
	return e.Start >= sb.FirstDataBlock && e.Start+e.Len <= sb.BlocksCount
}

// firstOwner names the inode whose extent first claimed block b, in
// the audit's claiming order: inodes ascending, extents in slot order.
// The last entry of inodes is the inode that claims b again, so it
// owns b when no earlier inode does.
func firstOwner(inodes []auditIno, sb *Superblock, b uint32) uint32 {
	for i := range inodes {
		in := &inodes[i].in
		for _, e := range in.Extents[:in.ValidExtents()] {
			if e.Len != 0 && sb.extentInRange(e) && b >= e.Start && b < e.Start+e.Len {
				return inodes[i].ino
			}
		}
	}
	return inodes[len(inodes)-1].ino
}

// diffBytes compares expected bitmap bytes with the on-disk ones,
// reporting each differing bit in ascending order, and returns how many
// on-disk bits are set.
func diffBytes(want, got []byte, report func(i uint32, inUse, expect bool)) (set uint32) {
	for k, w := range want {
		g := got[k]
		set += uint32(bits.OnesCount8(g))
		for d := g ^ w; d != 0; d &= d - 1 {
			j := uint(bits.TrailingZeros8(d))
			report(uint32(k)*8+uint32(j), g>>j&1 != 0, w>>j&1 != 0)
		}
	}
	return set
}

// setPrefix sets the first n bits of bm.
func setPrefix(bm []byte, n uint64) {
	for k := uint64(0); k < n/8; k++ {
		bm[k] = 0xFF
	}
	if n%8 != 0 {
		bm[n/8] |= 1<<(n%8) - 1
	}
}

// Clean reports whether the audit found nothing.
func Clean(probs []Problem) bool { return len(probs) == 0 }

// CountByCode tallies audit findings per code.
func CountByCode(probs []Problem) map[ProblemCode]int {
	m := make(map[ProblemCode]int)
	for _, p := range probs {
		m[p.Code]++
	}
	return m
}
