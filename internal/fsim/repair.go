package fsim

import "fmt"

// Repair primitives used by the e2fsck utility.

// OpenWithBackup opens the file system using the backup superblock in
// the block at blk, and immediately rewrites the primary from it
// (e2fsck -b semantics).
func OpenWithBackup(dev Device, blk uint32) (*Fs, error) {
	// The backup's block size is unknown until decoded; probe with
	// every legal block size.
	var sb *Superblock
	for bs := uint32(MinBlockSize); bs <= MaxBlockSize; bs *= 2 {
		buf := make([]byte, SuperBlockSize)
		if err := dev.ReadAt(buf, int64(blk)*int64(bs)); err != nil {
			continue
		}
		cand, err := DecodeSuperblock(buf)
		if err != nil {
			continue
		}
		if cand.BlockSize() == bs {
			sb = cand
			break
		}
	}
	if sb == nil {
		return nil, fmt.Errorf("%w: no valid backup superblock in block %d", ErrCorrupt, blk)
	}
	// Restore the primary.
	if err := dev.WriteAt(sb.Encode(), SuperOffset); err != nil {
		return nil, err
	}
	return Open(dev)
}

// RebuildBitmaps reconstructs every block and inode bitmap from the
// actual inode table and metadata layout, returning the number of
// corrections made.
func (fs *Fs) RebuildBitmaps() (int, error) {
	sb := fs.SB
	ratio := sb.ClusterRatio()
	groups := sb.GroupCount()

	// Build ground truth: blocks owned by live inodes. Unlike Audit,
	// every block below blocks_count counts, first_data_block or not.
	var owned, live numSet
	var in Inode
	for ino := uint32(1); ino <= sb.InodesCount; ino++ {
		if err := fs.ReadInodeInto(ino, &in); err != nil {
			return 0, err
		}
		if !in.InUse() {
			continue
		}
		live.add(ino)
		for i := uint16(0); i < in.ValidExtents(); i++ {
			e := in.Extents[i]
			for b := e.Start; b < e.Start+e.Len && b < sb.BlocksCount; b++ {
				owned.add(b)
			}
		}
	}

	fixes := 0
	for gi := uint32(0); gi < groups; gi++ {
		m := fs.groupMeta(gi)
		nblocks := sb.GroupBlockCount(gi)
		nclusters := (nblocks + ratio - 1) / ratio
		base := sb.GroupFirstBlock(gi)
		bmap, buf, err := fs.blockBitmap(gi)
		if err != nil {
			return fixes, err
		}
		for c := uint32(0); c < 8*sb.BlockSize(); c++ {
			want := false
			if c >= nclusters {
				want = true // padding
			} else {
				first := base + c*ratio
				for b := first; b < first+ratio && b < sb.BlocksCount; b++ {
					if b < m.DataFirst || owned.has(b) {
						want = true
						break
					}
				}
			}
			if bmap.Test(int(c)) != want {
				if want {
					bmap.Set(int(c))
				} else {
					bmap.Clear(int(c))
				}
				fixes++
			}
		}
		if err := fs.writeBlockBitmapBuf(gi, buf); err != nil {
			return fixes, err
		}

		ibm, err := fs.inodeBitmap(gi)
		if err != nil {
			return fixes, err
		}
		for i := uint32(0); i < 8*sb.BlockSize(); i++ {
			ino := gi*sb.InodesPerGroup + i + 1
			want := i >= sb.InodesPerGroup // padding
			if !want {
				want = live.has(ino) || ino < FirstIno
			}
			if ibm.Test(int(i)) != want {
				if want {
					ibm.Set(int(i))
				} else {
					ibm.Clear(int(i))
				}
				fixes++
			}
		}
		if err := fs.writeInodeBitmap(gi, ibm); err != nil {
			return fixes, err
		}
	}
	return fixes, nil
}

// Reconnect links an orphaned inode into /lost+found under the name
// "#<ino>", fixing its link count.
func (fs *Fs) Reconnect(ino uint32) error {
	lf, err := fs.Lookup(RootIno, "lost+found")
	if err != nil {
		// Recreate lost+found if it vanished.
		lf, err = fs.Mkdir(RootIno, "lost+found")
		if err != nil {
			return fmt.Errorf("recreating lost+found: %w", err)
		}
	}
	in, err := fs.ReadInode(ino)
	if err != nil {
		return err
	}
	ft := FtFile
	if in.IsDir() {
		ft = FtDir
	}
	name := fmt.Sprintf("#%d", ino)
	if err := fs.addEntry(lf, name, ino, ft); err != nil {
		return err
	}
	if in.IsDir() {
		// ".." now must point at lost+found.
		entries, err := fs.ReadDir(ino)
		if err == nil {
			for i := range entries {
				if entries[i].Name == ".." {
					entries[i].Ino = lf
				}
			}
			if err := fs.writeDir(ino, entries); err != nil {
				return err
			}
		}
		lfIn, err := fs.ReadInode(lf)
		if err != nil {
			return err
		}
		lfIn.LinksCount++
		if err := fs.WriteInode(lf, lfIn); err != nil {
			return err
		}
		in.LinksCount = 2
	} else {
		in.LinksCount = 1
	}
	return fs.WriteInode(ino, in)
}

// ClearDir resets a structurally broken directory to just its own
// "." and ".." (pointing at root, pending reconnection).
func (fs *Fs) ClearDir(ino uint32) error {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return err
	}
	if err := fs.truncateInode(in); err != nil {
		return err
	}
	if err := fs.WriteInode(ino, in); err != nil {
		return err
	}
	return fs.writeDir(ino, []DirEntry{
		{Ino: ino, Name: ".", FileType: FtDir},
		{Ino: RootIno, Name: "..", FileType: FtDir},
	})
}

// RecountAll recomputes every derived counter (per-group free blocks,
// free inodes, used dirs; superblock totals) and refreshes backup
// superblocks via Flush. Returns the number of corrections.
func (fs *Fs) RecountAll() (int, error) {
	sb := fs.SB
	ratio := sb.ClusterRatio()
	fixes := 0
	for gi := uint32(0); gi < sb.GroupCount(); gi++ {
		bmap, _, err := fs.blockBitmap(gi)
		if err != nil {
			return fixes, err
		}
		nclusters := (sb.GroupBlockCount(gi) + ratio - 1) / ratio
		free := uint32(0)
		for c := uint32(0); c < nclusters; c++ {
			if !bmap.Test(int(c)) {
				free++
			}
		}
		if want := free * ratio; fs.GDs[gi].FreeBlocksCount != want {
			fs.GDs[gi].FreeBlocksCount = want
			fixes++
		}
		ibm, err := fs.inodeBitmap(gi)
		if err != nil {
			return fixes, err
		}
		freeI := uint32(0)
		dirs := uint32(0)
		for i := uint32(0); i < sb.InodesPerGroup; i++ {
			if !ibm.Test(int(i)) {
				freeI++
				continue
			}
			ino := gi*sb.InodesPerGroup + i + 1
			in, err := fs.ReadInode(ino)
			if err == nil && in.InUse() && in.IsDir() {
				dirs++
			}
		}
		if fs.GDs[gi].FreeInodesCount != freeI {
			fs.GDs[gi].FreeInodesCount = freeI
			fixes++
		}
		if fs.GDs[gi].UsedDirsCount != dirs {
			fs.GDs[gi].UsedDirsCount = dirs
			fixes++
		}
	}
	var fb, fi uint32
	for _, gd := range fs.GDs {
		fb += gd.FreeBlocksCount
		fi += gd.FreeInodesCount
	}
	if sb.FreeBlocksCount != fb {
		sb.FreeBlocksCount = fb
		fixes++
	}
	if sb.FreeInodesCount != fi {
		sb.FreeInodesCount = fi
		fixes++
	}
	return fixes, nil
}
