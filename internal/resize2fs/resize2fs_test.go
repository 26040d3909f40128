package resize2fs

import (
	"bytes"
	"errors"
	"testing"

	"fsdep/internal/e2fsck"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/mountsim"
)

// mkFs formats a 16 MiB image with the given features and returns the
// device.
func mkFs(t *testing.T, features []string) *fsim.MemDevice {
	t.Helper()
	dev := fsim.NewMemDevice(16 << 20)
	_, err := mke2fs.Run(dev, mke2fs.Params{
		BlockSize: 1024,
		Features:  features,
	})
	if err != nil {
		t.Fatalf("mke2fs: %v", err)
	}
	return dev
}

func audit(t *testing.T, dev fsim.Device) []fsim.Problem {
	t.Helper()
	fs, err := fsim.Open(dev)
	if err != nil {
		t.Fatalf("open for audit: %v", err)
	}
	return fs.Audit()
}

func TestGrowClean(t *testing.T) {
	dev := mkFs(t, nil)
	fs, _ := fsim.Open(dev)
	old := fs.SB.BlocksCount
	rep, err := Run(dev, Options{Size: old + 8192, FixedFreeBlocks: true})
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if !rep.Grew || rep.NewBlocks != old+8192 {
		t.Fatalf("report = %+v", rep)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("grown fs not clean: %v", probs)
	}
}

func TestGrowPreservesData(t *testing.T) {
	dev := mkFs(t, nil)
	fs, _ := fsim.Open(dev)
	ino, err := fs.CreateFile(fsim.RootIno, "keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("precious "), 512)
	if err := fs.WriteFile(ino, payload); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	old := fs.SB.BlocksCount
	if _, err := Run(dev, Options{Size: old + 8192, FixedFreeBlocks: true}); err != nil {
		t.Fatalf("grow: %v", err)
	}
	fs2, _ := fsim.Open(dev)
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data lost after grow: err=%v len=%d", err, len(got))
	}
}

func TestFigure1SparseSuper2GrowCorrupts(t *testing.T) {
	// The paper's Figure 1: sparse_super2 enabled (mke2fs) + size
	// parameter larger than the fs (resize2fs) ⇒ metadata corruption
	// with incorrect free blocks.
	dev := mkFs(t, []string{"sparse_super2"})
	fs, _ := fsim.Open(dev)
	old := fs.SB.BlocksCount

	rep, err := Run(dev, Options{Size: old + 8192}) // buggy path by default
	if err != nil {
		t.Fatalf("resize2fs returned an error instead of corrupting silently: %v", err)
	}
	if !rep.Grew {
		t.Fatal("expected growth")
	}
	probs := audit(t, dev)
	var freeBlocksBad bool
	for _, p := range probs {
		if p.Code == fsim.PFreeBlocksCount {
			freeBlocksBad = true
		}
	}
	if !freeBlocksBad {
		t.Fatalf("Figure-1 corruption not reproduced; audit = %v", probs)
	}

	// e2fsck -f -y detects and repairs the damage.
	ck, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true})
	if err != nil {
		t.Fatalf("e2fsck: %v", err)
	}
	if ck.ExitCode != e2fsck.ExitFixed {
		t.Fatalf("e2fsck exit = %d, problems = %v", ck.ExitCode, ck.Remaining)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("still dirty after fsck: %v", probs)
	}
}

func TestFigure1FixedPathIsClean(t *testing.T) {
	dev := mkFs(t, []string{"sparse_super2"})
	fs, _ := fsim.Open(dev)
	old := fs.SB.BlocksCount
	if _, err := Run(dev, Options{Size: old + 8192, FixedFreeBlocks: true}); err != nil {
		t.Fatal(err)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("fixed resize path left problems: %v", probs)
	}
}

func TestFigure1RequiresBothConditions(t *testing.T) {
	// Without sparse_super2 the buggy order is not taken: growth is
	// clean even with FixedFreeBlocks=false.
	dev := mkFs(t, nil)
	fs, _ := fsim.Open(dev)
	old := fs.SB.BlocksCount
	if _, err := Run(dev, Options{Size: old + 8192}); err != nil {
		t.Fatal(err)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("non-sparse_super2 grow corrupted: %v", probs)
	}
	// With sparse_super2 but no expansion (same size), nothing happens.
	dev2 := mkFs(t, []string{"sparse_super2"})
	fs2, _ := fsim.Open(dev2)
	if _, err := Run(dev2, Options{Size: fs2.SB.BlocksCount}); err != nil {
		t.Fatal(err)
	}
	if probs := audit(t, dev2); len(probs) != 0 {
		t.Fatalf("no-op resize corrupted: %v", probs)
	}
}

func TestGrowBeyondReservedGdtFails(t *testing.T) {
	// CCD: resize2fs growth depends on mke2fs's resize_inode
	// reservation. Without it, growth needing more descriptor blocks
	// must be refused.
	dev := fsim.NewMemDevice(16 << 20)
	_, err := mke2fs.Run(dev, mke2fs.Params{
		BlockSize: 1024,
		Features:  []string{"^resize_inode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := fsim.Open(dev)
	if fs.SB.ReservedGdtBlks != 0 {
		t.Fatalf("reserved gdt = %d, want 0", fs.SB.ReservedGdtBlks)
	}
	// Growth to 33× the size needs more descriptor blocks than the
	// zero reservation allows (1024-byte blocks hold 32 descriptors).
	_, err = Run(dev, Options{Size: fs.SB.BlocksCount * 33, FixedFreeBlocks: true})
	var ue *UtilError
	if !errors.As(err, &ue) || ue.Related != "resize_inode" {
		t.Fatalf("err = %v, want resize_inode UtilError", err)
	}
}

func TestGrowWithMetaBGUnbounded(t *testing.T) {
	dev := fsim.NewMemDevice(64 << 20)
	_, err := mke2fs.Run(dev, mke2fs.Params{
		BlockSize: 1024,
		Features:  []string{"meta_bg", "^resize_inode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := fsim.Open(dev)
	if _, err := Run(dev, Options{Size: fs.SB.BlocksCount * 4, FixedFreeBlocks: true}); err != nil {
		t.Fatalf("meta_bg grow failed: %v", err)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("meta_bg grow not clean: %v", probs)
	}
}

func TestShrinkRequiresFsck(t *testing.T) {
	dev := mkFs(t, nil)
	// Mount+unmount bumps MntCount, so shrink must demand e2fsck.
	m, err := mountsim.Do(dev, mountsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs, _ := fsim.Open(dev)
	old := fs.SB.BlocksCount
	_, err = Run(dev, Options{Size: old - 8192})
	var ue *UtilError
	if !errors.As(err, &ue) || ue.Related != "e2fsck" {
		t.Fatalf("err = %v, want e2fsck dependency", err)
	}
	// After e2fsck -f the shrink proceeds.
	if _, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(dev, Options{Size: old - 8192})
	if err != nil {
		t.Fatalf("shrink after fsck: %v", err)
	}
	if rep.GroupsRemoved == 0 {
		t.Errorf("report = %+v", rep)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("shrunk fs not clean: %v", probs)
	}
}

func TestShrinkRefusesLosingData(t *testing.T) {
	dev := mkFs(t, nil)
	fs, _ := fsim.Open(dev)
	// Fill a file that lands in the last group.
	ino, _ := fs.CreateFile(fsim.RootIno, "big")
	if err := fs.WriteFile(ino, bytes.Repeat([]byte{9}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	min := minimumBlocks(fs)
	_, err := Run(dev, Options{Size: min - 1024, Force: true})
	if err == nil {
		t.Fatal("shrink below minimum succeeded")
	}
}

func TestRefuseMounted(t *testing.T) {
	dev := mkFs(t, nil)
	m, err := mountsim.Do(dev, mountsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Unmount() }()
	fs, _ := fsim.Open(dev)
	if _, err := Run(dev, Options{Size: fs.SB.BlocksCount + 1024}); err == nil {
		t.Fatal("resize of a mounted fs succeeded")
	}
}

func TestGrowFillsDeviceWhenSizeOmitted(t *testing.T) {
	dev := mkFs(t, nil)
	if err := dev.Resize(32 << 20); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(dev, Options{FixedFreeBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewBlocks != 32<<10 { // 32 MiB / 1 KiB blocks
		t.Errorf("new blocks = %d, want %d", rep.NewBlocks, 32<<10)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("not clean: %v", probs)
	}
}

func TestMinimumOnlyShrink(t *testing.T) {
	dev := mkFs(t, nil)
	if _, err := e2fsck.Run(dev, e2fsck.Options{Force: true, Yes: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(dev, Options{MinimumOnly: true})
	if err != nil {
		t.Fatalf("shrink -M: %v", err)
	}
	if rep.NewBlocks >= rep.OldBlocks {
		t.Errorf("minimum shrink did not shrink: %+v", rep)
	}
	if probs := audit(t, dev); len(probs) != 0 {
		t.Fatalf("not clean: %v", probs)
	}
}

// TestMinimumOnlyCorruptExtentCount: an on-disk extent count beyond the
// inode's extent slots must not crash the minimum-size scan.
func TestMinimumOnlyCorruptExtentCount(t *testing.T) {
	dev := mkFs(t, nil)
	fs, err := fsim.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	root, err := fs.ReadInode(fsim.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	root.ExtentCount = fsim.MaxInlineExtents + 5
	if err := fs.WriteInode(fsim.RootIno, root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(dev, Options{MinimumOnly: true, Force: true}); err != nil {
		t.Logf("shrink -M on a corrupt inode: %v", err)
	}
}
