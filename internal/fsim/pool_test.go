// Arena acceptance tests: a device checked out of the pool must be
// observationally identical to a fresh allocation — byte-for-byte —
// no matter what the previous trial did to it, including faultdev
// crash/torn-write poisoning and shrink/regrow resizes. The tests live
// in an external package so they can drive the real trial pipeline
// (mke2fs → resize2fs) against pooled devices.
package fsim_test

import (
	"bytes"
	"sync"
	"testing"

	"fsdep/internal/faultdev"
	"fsdep/internal/fsim"
	"fsdep/internal/mke2fs"
	"fsdep/internal/resize2fs"
)

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestResetMatchesFreshDevice is the satellite bugfix regression:
// Reset must zero regrown regions the same way Resize's shrink/regrow
// path does, so a recycled device never exposes stale bytes.
func TestResetMatchesFreshDevice(t *testing.T) {
	d := fsim.NewMemDevice(4096)
	junk := bytes.Repeat([]byte{0xA5}, 4096)
	if err := d.WriteAt(junk, 0); err != nil {
		t.Fatal(err)
	}
	// Shrink parks the poisoned tail inside the capacity; a naive
	// Reset that only reslices would resurrect it.
	if err := d.Resize(1024); err != nil {
		t.Fatal(err)
	}
	if err := d.Reset(4096); err != nil {
		t.Fatal(err)
	}
	want := fsim.NewMemDevice(4096)
	if d.Size() != want.Size() {
		t.Fatalf("size = %d, want %d", d.Size(), want.Size())
	}
	if !bytes.Equal(d.Bytes(), want.Bytes()) {
		t.Fatal("Reset device differs from a fresh device")
	}
	if err := d.Reset(-1); err == nil {
		t.Fatal("Reset(-1) succeeded, want error")
	}
}

// TestRecycledDeviceNeverLeaksTrialBytes runs a real formatting trial
// on a pooled device, returns it, and asserts the next checkout reads
// all-zero — the invariant mke2fs's looksFormatted probe and the audit
// depend on.
func TestRecycledDeviceNeverLeaksTrialBytes(t *testing.T) {
	const size = 16 << 20
	dev := fsim.GetDevice(size)
	if _, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024}); err != nil {
		t.Fatal(err)
	}
	fsim.PutDevice(dev)

	re := fsim.GetDevice(size)
	defer fsim.PutDevice(re)
	if re.Size() != size {
		t.Fatalf("recycled size = %d, want %d", re.Size(), size)
	}
	if !allZero(re.Bytes()) {
		t.Fatal("recycled device leaks previous trial's bytes")
	}
}

// TestTrialOnRecycledDeviceByteIdentical is the arena's headline
// guarantee: the same mkfs→resize trial produces a byte-identical
// image whether it runs on a fresh allocation or on a recycled device
// that a previous faulted trial poisoned with a torn write.
func TestTrialOnRecycledDeviceByteIdentical(t *testing.T) {
	const size = 16 << 20
	trial := func(dev *fsim.MemDevice) []byte {
		t.Helper()
		res, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024, Features: []string{"sparse_super2"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resize2fs.Run(dev, resize2fs.Options{Size: res.Fs.SB.BlocksCount + 8192}); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), dev.Bytes()...)
	}

	fresh := fsim.NewMemDevice(size)
	want := trial(fresh)

	// Poison a pooled device with a faulted trial: the torn write at
	// the crash point leaves a half-written sector, and every mutation
	// after it is dropped — maximally stale state for the recycler.
	poisoned := fsim.GetDevice(size)
	fdev := faultdev.Wrap(poisoned, faultdev.Plan{CrashAtWrite: 3, Mode: faultdev.CrashTorn, Seed: 7})
	_, _ = mke2fs.Run(fdev, mke2fs.Params{BlockSize: 1024})
	fsim.PutDevice(poisoned)

	re := fsim.GetDevice(size)
	defer fsim.PutDevice(re)
	got := trial(re)
	if !bytes.Equal(got, want) {
		t.Fatal("trial on recycled device differs from trial on fresh device")
	}
}

// TestLoadDeviceRestoresSnapshot checks the crash-sweep restore path:
// a pooled device loaded from a snapshot holds exactly the snapshot,
// even when the recycled buffer previously held unrelated junk of a
// different size.
func TestLoadDeviceRestoresSnapshot(t *testing.T) {
	snapshot := bytes.Repeat([]byte{0xC3, 0x01, 0x7F}, 1<<10)
	src := fsim.NewMemDevice(int64(len(snapshot)))
	if err := src.WriteAt(snapshot, 0); err != nil {
		t.Fatal(err)
	}
	img := src.Snapshot()

	junk := fsim.GetDevice(1 << 20)
	if err := junk.WriteAt(bytes.Repeat([]byte{0xFF}, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	fsim.PutDevice(junk)

	dev := fsim.LoadDevice(img)
	defer fsim.PutDevice(dev)
	if dev.Size() != int64(len(snapshot)) {
		t.Fatalf("size = %d, want %d", dev.Size(), len(snapshot))
	}
	if !bytes.Equal(dev.Bytes(), snapshot) {
		t.Fatal("loaded device differs from snapshot")
	}
}

// TestFixedDeviceNotPooled: fixed-size devices keep their rejection
// semantics and must never enter the arena.
func TestFixedDeviceNotPooled(t *testing.T) {
	fixed := fsim.NewFixedMemDevice(512)
	if err := fixed.WriteAt([]byte{0xEE}, 0); err != nil {
		t.Fatal(err)
	}
	fsim.PutDevice(fixed) // must be a no-op
	fsim.PutDevice(nil)   // likewise

	d := fsim.GetDevice(512)
	defer fsim.PutDevice(d)
	if !allZero(d.Bytes()) {
		t.Fatal("fixed device leaked into the pool")
	}
	if err := d.WriteAt([]byte{1}, 4096); err != nil {
		t.Fatal("pooled device lost growable semantics:", err)
	}
}

// TestConcurrentPoolCheckout hammers the arena from many goroutines
// under -race: every checkout must be exclusive and zero-filled even
// while other workers are scribbling on and returning their devices.
func TestConcurrentPoolCheckout(t *testing.T) {
	const (
		workers = 8
		rounds  = 32
		size    = 1 << 16
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pattern := byte(w + 1)
			for r := 0; r < rounds; r++ {
				d := fsim.GetDevice(size)
				if !allZero(d.Bytes()) {
					errs <- "checkout not zero-filled"
					fsim.PutDevice(d)
					return
				}
				if err := d.WriteAt(bytes.Repeat([]byte{pattern}, size), 0); err != nil {
					errs <- err.Error()
					fsim.PutDevice(d)
					return
				}
				// The buffer is exclusively ours until Put: it must
				// still hold our pattern, not a neighbor's.
				b := d.Bytes()
				if b[0] != pattern || b[size-1] != pattern {
					errs <- "checkout shared between workers"
					fsim.PutDevice(d)
					return
				}
				fsim.PutDevice(d)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// contents reads d's full contents without Bytes, which would mark
// every page dirty.
func contents(t *testing.T, d *fsim.MemDevice) []byte {
	t.Helper()
	p := make([]byte, d.Size())
	if err := d.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBytesWritesNeverSurviveRecycling pins the Bytes contract: the
// returned buffer is live, and because Bytes marks every page dirty,
// corruption injected through it — even past Size, inside the
// capacity — is cleared when the device is recycled.
func TestBytesWritesNeverSurviveRecycling(t *testing.T) {
	const size = 1<<20 + 123
	d := fsim.GetDevice(size)
	b := d.Bytes()
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xD7
	}
	fsim.PutDevice(d)

	re := fsim.GetDevice(size)
	defer fsim.PutDevice(re)
	if re.Size() != size {
		t.Fatalf("recycled size = %d, want %d", re.Size(), size)
	}
	if !allZero(contents(t, re)) {
		t.Fatal("bytes written through Bytes() survived recycling")
	}
	// A regrow into the capacity must read zero as well.
	if err := re.Resize(int64(cap(b))); err != nil {
		t.Fatal(err)
	}
	if !allZero(contents(t, re)) {
		t.Fatal("capacity written through Bytes() resurfaced on regrow")
	}
}

// TestMkfsSnapshotIsSparse pins the sparsity the crash sweep's restore
// cost rests on: a default mkfs on a 16 MiB trial device touches a few
// dozen pages (69 when measured), so its snapshot must stay far below
// the device's 4,096 pages. A regression to whole-device copies fails
// here.
func TestMkfsSnapshotIsSparse(t *testing.T) {
	const size = 16 << 20
	dev := fsim.GetDevice(size)
	defer fsim.PutDevice(dev)
	if _, err := mke2fs.Run(dev, mke2fs.Params{BlockSize: 1024}); err != nil {
		t.Fatal(err)
	}
	img := dev.Snapshot()
	n := fsim.ImagePages(img)
	if n > 128 {
		t.Fatalf("16 MiB mkfs snapshot holds %d pages, want <= 128", n)
	}
	t.Logf("16 MiB mkfs snapshot: %d pages", n)
	re := fsim.LoadDevice(img)
	defer fsim.PutDevice(re)
	if !bytes.Equal(contents(t, re), contents(t, dev)) {
		t.Fatal("restored snapshot differs from the formatted device")
	}
}

// TestLoadOnLargerJunkDeviceMatchesFresh restores a formatted image
// into recycled devices whose capacity is larger than the image and
// full of junk, then grows the file system into that capacity: the
// result must equal the same trial on a fresh device carrying the
// image.
func TestLoadOnLargerJunkDeviceMatchesFresh(t *testing.T) {
	src := fsim.NewMemDevice(16 << 20)
	res, err := mke2fs.Run(src, mke2fs.Params{BlockSize: 1024, Features: []string{"sparse_super2"}})
	if err != nil {
		t.Fatal(err)
	}
	img := src.Snapshot()
	grow := func(dev *fsim.MemDevice) []byte {
		t.Helper()
		if !bytes.Equal(contents(t, dev), contents(t, src)) {
			t.Fatal("loaded device differs from the snapshotted device")
		}
		if _, err := resize2fs.Run(dev, resize2fs.Options{Size: res.Fs.SB.BlocksCount + 8192}); err != nil {
			t.Fatal(err)
		}
		return contents(t, dev)
	}
	junked := func() *fsim.MemDevice {
		d := fsim.NewMemDevice(32 << 20)
		for i, b := 0, d.Bytes(); i < len(b); i++ {
			b[i] = 0xFF
		}
		if err := d.Resize(5 << 20); err != nil {
			t.Fatal(err)
		}
		return d
	}

	fresh := fsim.NewMemDevice(0)
	fresh.Load(img)
	want := grow(fresh)

	direct := junked()
	direct.Load(img)
	if got := grow(direct); !bytes.Equal(got, want) {
		t.Fatal("Load into a larger junk device differs from a fresh device")
	}

	fsim.PutDevice(junked())
	pooled := fsim.LoadDevice(img)
	defer fsim.PutDevice(pooled)
	if got := grow(pooled); !bytes.Equal(got, want) {
		t.Fatal("LoadDevice on a recycled junk device differs from a fresh device")
	}
}
