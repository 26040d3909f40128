package fsim

import (
	"fmt"
	"sort"
)

// auditRef is the map-based audit that Audit replaced, kept verbatim as
// the differential oracle for Audit's dense rewrite: both must return
// the same problems, in the same order, for every image (except the
// inflated inodes_count that Audit now rejects in pass 0).
func (fs *Fs) auditRef() []Problem {
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

	// Pass 1: walk all inodes, build the real block-usage map and
	// per-inode state. The walk decodes into one stack inode and only
	// materializes state for in-use inodes — the full-table scan is the
	// sweep pipelines' hottest loop, and most slots are free.
	type inoState struct {
		in        Inode
		links     uint32 // directory references found
		reachable bool
	}
	states := make(map[uint32]*inoState)
	blockOwner := make(map[uint32]uint32) // block → first owning inode
	var inodeErrs []Problem

	var tmp Inode
	for ino := uint32(1); ino <= sb.InodesCount; ino++ {
		if err := fs.ReadInodeInto(ino, &tmp); err != nil {
			inodeErrs = append(inodeErrs, Problem{Code: PBadSuper, Group: NoGroup, Ino: ino,
				Msg: fmt.Sprintf("inode %d unreadable: %v", ino, err)})
			continue
		}
		if !tmp.InUse() {
			continue
		}
		in := &tmp
		st := &inoState{in: tmp}
		states[ino] = st
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
			if e.Start < sb.FirstDataBlock || e.Start+e.Len > sb.BlocksCount {
				inodeErrs = append(inodeErrs, Problem{Code: PExtentRange, Group: NoGroup, Ino: ino,
					Msg: fmt.Sprintf("inode %d extent [%d,+%d) outside fs (blocks %d)",
						ino, e.Start, e.Len, sb.BlocksCount)})
				continue
			}
			for b := e.Start; b < e.Start+e.Len; b++ {
				if owner, dup := blockOwner[b]; dup {
					inodeErrs = append(inodeErrs, Problem{Code: PExtentOverlap,
						Group: fs.groupOfBlock(b), Ino: ino,
						Msg: fmt.Sprintf("block %d claimed by inodes %d and %d", b, owner, ino)})
				} else {
					blockOwner[b] = ino
				}
			}
		}
	}
	probs = append(probs, inodeErrs...)

	// Pass 2: directory walk from root — connectivity and link counts.
	if root, ok := states[RootIno]; ok && root.in.IsDir() {
		type frame struct{ ino, parent uint32 }
		stack := []frame{{RootIno, RootIno}}
		visited := make(map[uint32]bool)
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[fr.ino] {
				continue
			}
			visited[fr.ino] = true
			st := states[fr.ino]
			if st == nil {
				continue
			}
			st.reachable = true
			if !st.in.IsDir() {
				continue
			}
			entries, err := fs.ReadDir(fr.ino)
			if err != nil {
				probs = append(probs, Problem{Code: PDirStructure, Group: NoGroup, Ino: fr.ino,
					Msg: fmt.Sprintf("directory %d: %v", fr.ino, err)})
				continue
			}
			for _, e := range entries {
				child := states[e.Ino]
				if child == nil {
					probs = append(probs, Problem{Code: PDirStructure, Group: NoGroup, Ino: fr.ino,
						Msg: fmt.Sprintf("directory %d entry %q points to unallocated inode %d",
							fr.ino, e.Name, e.Ino)})
					continue
				}
				child.links++
				if e.Name != "." && e.Name != ".." && child.in.IsDir() {
					stack = append(stack, frame{e.Ino, fr.ino})
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

	var inos []uint32
	for ino := range states {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		st := states[ino]
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

	// Pass 3: bitmaps and free counts per group.
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

		usedClusters := uint32(0)
		for c := uint32(0); c < nclusters; c++ {
			inUse := bmap.Test(int(c))
			// Expected usage: metadata or any owned block in cluster.
			expect := false
			first := base + c*ratio
			for b := first; b < first+ratio && b < sb.BlocksCount; b++ {
				if b < m.DataFirst {
					expect = true
					break
				}
				if _, owned := blockOwner[b]; owned {
					expect = true
					break
				}
			}
			if inUse != expect {
				probs = append(probs, Problem{Code: PBlockBitmap, Group: gi,
					Msg: fmt.Sprintf("group %d cluster %d (block %d): bitmap=%v, actual=%v",
						gi, c, first, inUse, expect)})
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
		freeInodes := uint32(0)
		for i := uint32(0); i < sb.InodesPerGroup; i++ {
			ino := gi*sb.InodesPerGroup + i + 1
			inUse := ibm.Test(int(i))
			_, allocated := states[ino]
			if ino < FirstIno {
				allocated = true // reserved inode slots stay marked
			}
			if inUse != allocated {
				probs = append(probs, Problem{Code: PInodeBitmap, Group: gi, Ino: ino,
					Msg: fmt.Sprintf("inode %d: bitmap=%v, actual=%v", ino, inUse, allocated)})
			}
			if !inUse {
				freeInodes++
			}
		}
		if gd.FreeInodesCount != freeInodes {
			probs = append(probs, Problem{Code: PFreeInodesCount, Group: gi,
				Want: freeInodes, Got: gd.FreeInodesCount,
				Msg: fmt.Sprintf("group %d free inodes count %d, bitmap says %d",
					gi, gd.FreeInodesCount, freeInodes)})
		}
		sumFreeInodes += freeInodes

		dirs := uint32(0)
		for i := uint32(0); i < sb.InodesPerGroup; i++ {
			ino := gi*sb.InodesPerGroup + i + 1
			if st, ok := states[ino]; ok && st.in.IsDir() {
				dirs++
			}
		}
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
