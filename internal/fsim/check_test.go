package fsim

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// tree is a small known file-system population used by the audit tests.
type tree struct {
	fs    *Fs
	dir   uint32 // /d
	fileA uint32 // /d/a, extent-mapped
	fileB uint32 // /d/b, extent-mapped
}

// mkTree builds a fresh fs with a directory and two extent-mapped
// files, verified clean before any corruption is injected.
func mkTree(t *testing.T) *tree {
	t.Helper()
	fs := mk(t, testGeometry())
	dir, err := fs.Mkdir(RootIno, "d")
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	a, err := fs.CreateFile(dir, "a")
	if err != nil {
		t.Fatalf("create a: %v", err)
	}
	if err := fs.WriteFile(a, bytes.Repeat([]byte{0x5a}, 3000)); err != nil {
		t.Fatalf("write a: %v", err)
	}
	b, err := fs.CreateFile(dir, "b")
	if err != nil {
		t.Fatalf("create b: %v", err)
	}
	if err := fs.WriteFile(b, bytes.Repeat([]byte{0xa5}, 2000)); err != nil {
		t.Fatalf("write b: %v", err)
	}
	if probs := fs.Audit(); len(probs) != 0 {
		t.Fatalf("tree not clean before corruption: %v", probs)
	}
	return &tree{fs: fs, dir: dir, fileA: a, fileB: b}
}

// rewriteInode applies f to ino's decoded inode and persists it.
func rewriteInode(t *testing.T, fs *Fs, ino uint32, f func(*Inode)) {
	t.Helper()
	in, err := fs.ReadInode(ino)
	if err != nil {
		t.Fatalf("ReadInode(%d): %v", ino, err)
	}
	f(in)
	if err := fs.WriteInode(ino, in); err != nil {
		t.Fatalf("WriteInode(%d): %v", ino, err)
	}
}

// TestAuditDetectsEveryProblemCode constructs one targeted corruption
// per ProblemCode and asserts the audit reports it.
func TestAuditDetectsEveryProblemCode(t *testing.T) {
	cases := []struct {
		name    string
		want    ProblemCode
		corrupt func(t *testing.T, tr *tree)
	}{
		{"bad-superblock", PBadSuper, func(t *testing.T, tr *tree) {
			tr.fs.SB.Magic = 0
		}},
		{"group-free-blocks", PFreeBlocksCount, func(t *testing.T, tr *tree) {
			tr.fs.GDs[0].FreeBlocksCount++ // the Figure-1 signature
		}},
		{"super-free-blocks", PFreeBlocksCount, func(t *testing.T, tr *tree) {
			tr.fs.SB.FreeBlocksCount += 3
		}},
		{"group-free-inodes", PFreeInodesCount, func(t *testing.T, tr *tree) {
			tr.fs.GDs[0].FreeInodesCount++
		}},
		{"block-bitmap", PBlockBitmap, func(t *testing.T, tr *tree) {
			bmap, buf, err := tr.fs.blockBitmap(0)
			if err != nil {
				t.Fatal(err)
			}
			// Mark a free cluster used: find one past the metadata.
			for c := 0; ; c++ {
				if !bmap.Test(c) {
					bmap.Set(c)
					break
				}
			}
			if err := tr.fs.writeBlockBitmapBuf(0, buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"inode-bitmap", PInodeBitmap, func(t *testing.T, tr *tree) {
			ibm, err := tr.fs.inodeBitmap(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				if !ibm.Test(i) {
					ibm.Set(i)
					break
				}
			}
			if err := tr.fs.writeInodeBitmap(0, ibm); err != nil {
				t.Fatal(err)
			}
		}},
		{"extent-range", PExtentRange, func(t *testing.T, tr *tree) {
			rewriteInode(t, tr.fs, tr.fileA, func(in *Inode) {
				in.Extents[0].Start = tr.fs.SB.BlocksCount + 100
			})
		}},
		{"extent-count", PExtentRange, func(t *testing.T, tr *tree) {
			// A corrupted on-disk count beyond the fixed array — the
			// audit must flag it, not index out of range.
			rewriteInode(t, tr.fs, tr.fileA, func(in *Inode) {
				in.ExtentCount = 65535
			})
		}},
		{"extent-overlap", PExtentOverlap, func(t *testing.T, tr *tree) {
			a, err := tr.fs.ReadInode(tr.fileA)
			if err != nil {
				t.Fatal(err)
			}
			rewriteInode(t, tr.fs, tr.fileB, func(in *Inode) {
				in.Extents[0] = a.Extents[0]
			})
		}},
		{"link-count", PLinkCount, func(t *testing.T, tr *tree) {
			rewriteInode(t, tr.fs, tr.fileA, func(in *Inode) {
				in.LinksCount = 7
			})
		}},
		{"dir-structure", PDirStructure, func(t *testing.T, tr *tree) {
			entries, err := tr.fs.ReadDir(tr.dir)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, DirEntry{Ino: 900, Name: "ghost", FileType: FtFile})
			if err := tr.fs.WriteDirEntries(tr.dir, entries); err != nil {
				t.Fatal(err)
			}
		}},
		{"unreachable", PUnreachable, func(t *testing.T, tr *tree) {
			entries, err := tr.fs.ReadDir(tr.dir)
			if err != nil {
				t.Fatal(err)
			}
			kept := entries[:0]
			for _, e := range entries {
				if e.Name != "a" {
					kept = append(kept, e)
				}
			}
			if err := tr.fs.WriteDirEntries(tr.dir, kept); err != nil {
				t.Fatal(err)
			}
		}},
		{"backup-superblock", PBackupSuper, func(t *testing.T, tr *tree) {
			blk := tr.fs.groupMeta(1).SuperBlk
			garbage := bytes.Repeat([]byte{0xFF}, int(tr.fs.SB.BlockSize()))
			if err := tr.fs.WriteBlock(blk, garbage); err != nil {
				t.Fatal(err)
			}
		}},
		{"used-dirs", PUsedDirs, func(t *testing.T, tr *tree) {
			tr.fs.GDs[0].UsedDirsCount += 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := mkTree(t)
			tc.corrupt(t, tr)
			probs := tr.fs.Audit()
			byCode := CountByCode(probs)
			if byCode[tc.want] == 0 {
				t.Errorf("audit missed %s; reported: %v", tc.want, probs)
			}
			if Clean(probs) {
				t.Error("Clean() = true on a corrupted fs")
			}
			total := 0
			for _, n := range byCode {
				total += n
			}
			if total != len(probs) {
				t.Errorf("CountByCode sums to %d, audit reported %d problems", total, len(probs))
			}
		})
	}
}

// TestCleanAndCountAgreeOnCleanFs: the helpers must agree on the empty
// finding set too.
func TestCleanAndCountAgreeOnCleanFs(t *testing.T) {
	tr := mkTree(t)
	probs := tr.fs.Audit()
	if !Clean(probs) {
		t.Fatalf("fresh tree not clean: %v", probs)
	}
	if n := len(CountByCode(probs)); n != 0 {
		t.Errorf("CountByCode on a clean audit has %d codes", n)
	}
}

// TestAuditBoundsInflatedInodesCount: an inodes_count past the groups'
// inode tables (two flipped bits can do it) once made the audit report
// every missing inode, one problem each: bit 20 cost ~1 s and ~0.5 GB,
// bit 24 ~23 s and ~8.7 GB. Pass 0 now rejects it at once.
func TestAuditBoundsInflatedInodesCount(t *testing.T) {
	tr := mkTree(t)
	sb := tr.fs.SB
	sb.InodesCount |= 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	probs := tr.fs.Audit()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("audit allocated %d bytes, budget 1 MiB", alloc)
	}
	if elapsed > time.Second {
		t.Errorf("audit took %v, budget 1s", elapsed)
	}
	want := fmt.Sprintf("inodes_count %d exceeds 2 groups × %d", sb.InodesCount, sb.InodesPerGroup)
	if len(probs) != 1 || probs[0].Code != PBadSuper || probs[0].Msg != want {
		t.Errorf("audit = %v, want one %s problem %q", probs, PBadSuper, want)
	}
}

// TestAuditBoundsInflatedInodesPerGroup: an inodes_per_group past the
// inode-bitmap block once passed the inodes_count check, and pass 3
// read every bit beyond the block as set and reported each slot: bit 16
// gave 147,424 problems and 38 MB. Pass 0 now rejects it, and 0, at
// once.
func TestAuditBoundsInflatedInodesPerGroup(t *testing.T) {
	for _, ipg := range []func(uint32) uint32{
		func(v uint32) uint32 { return v | 1<<16 },
		func(uint32) uint32 { return 0 },
	} {
		tr := mkTree(t)
		sb := tr.fs.SB
		sb.InodesPerGroup = ipg(sb.InodesPerGroup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		probs := tr.fs.Audit()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("inodes_per_group %d: audit allocated %d bytes, budget 1 MiB", sb.InodesPerGroup, alloc)
		}
		want := fmt.Sprintf("inodes_per_group %d outside 1..%d (8 × blocksize)", sb.InodesPerGroup, 8*sb.BlockSize())
		if len(probs) != 1 || probs[0].Code != PBadSuper || probs[0].Msg != want {
			t.Errorf("audit = %v, want one %s problem %q", probs, PBadSuper, want)
		}
	}
}

// TestAuditBoundsCorruptDirExtent: a directory extent whose end wraps
// past 2^32 back inside the file system passes the range check, and
// reading the directory once sized its buffer from the full extent
// length, terabytes. The reads stop at the end of the device, and so
// does the buffer now.
func TestAuditBoundsCorruptDirExtent(t *testing.T) {
	tr := mkTree(t)
	rewriteInode(t, tr.fs, tr.dir, func(in *Inode) {
		in.Extents[0] = Extent{Start: 8000, Len: math.MaxUint32 - 8000 + 101} // ends at block 100, mod 2^32
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	probs := tr.fs.Audit()
	runtime.ReadMemStats(&after)
	if alloc, budget := after.TotalAlloc-before.TotalAlloc, 4*uint64(tr.fs.Device().Size()); alloc > budget {
		t.Errorf("audit allocated %d bytes, budget %d", alloc, budget)
	}
	if CountByCode(probs)[PDirStructure] == 0 {
		t.Errorf("audit missed the unreadable directory: %v", probs)
	}
}
