// Package fsim implements an ext4-like file system over a byte device.
// It is the runnable substrate for the paper's Ext4 ecosystem: the
// mke2fs, mount, resize2fs, e2fsck, and e4defrag packages operate on
// fsim images, and the metadata invariants it maintains (free-block
// accounting, bitmap consistency, backup-superblock placement under
// sparse_super/sparse_super2) are the ones the paper's
// configuration bugs violate — including the Figure-1 resize
// corruption.
//
// The on-disk format is a faithful simplification of ext4: a primary
// superblock at byte offset 1024, block groups of 8×blocksize blocks,
// per-group block/inode bitmaps and inode tables, extent-mapped
// regular files, and feature flags (compat / incompat / ro_compat)
// with ext4's semantics for unknown-feature handling.
package fsim

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"
)

// Device is random-access storage for one file-system image.
type Device interface {
	// ReadAt fills p from the device at off. Short reads are errors.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at off, growing the device if it supports
	// growth; otherwise writes past the end fail.
	WriteAt(p []byte, off int64) error
	// Size returns the current device size in bytes.
	Size() int64
	// Resize grows or shrinks the device to n bytes.
	Resize(n int64) error
}

// ErrOutOfRange reports device access beyond the current size.
var ErrOutOfRange = errors.New("fsim: device access out of range")

// pageShift sets MemDevice's dirty-tracking granularity: 4 KiB pages.
const pageShift = 12

// pageSize is the MemDevice page size in bytes.
const pageSize = 1 << pageShift

// MemDevice is an in-memory Device. It is safe for concurrent use.
//
// A trial device is megabytes large, but a formatted image touches
// only a few dozen pages, so MemDevice keeps a dirty bit per 4 KiB
// page of its backing array. The page invariant: every byte of
// buf[:cap(buf)] on an unmarked page is zero. WriteAt marks the pages
// it writes, and every whole-device operation (Reset, Resize, Load,
// Snapshot) visits only marked pages, so it costs O(pages touched)
// rather than O(device size).
type MemDevice struct {
	mu  sync.RWMutex
	buf []byte
	// dirty holds one bit per page of buf[:cap(buf)]; a clear bit
	// promises the page is all zero. Extra set bits are harmless.
	dirty []uint64
	// fixed prevents implicit growth on out-of-range writes.
	fixed bool
}

// NewMemDevice returns a zero-filled in-memory device of n bytes.
func NewMemDevice(n int64) *MemDevice {
	d := &MemDevice{}
	d.alloc(int(n))
	return d
}

// NewFixedMemDevice returns an in-memory device that rejects writes
// past its end, modelling a real block device.
func NewFixedMemDevice(n int64) *MemDevice {
	d := NewMemDevice(n)
	d.fixed = true
	return d
}

// alloc replaces the backing array with a fresh zeroed one of n bytes.
func (d *MemDevice) alloc(n int) {
	d.buf = make([]byte, n)
	d.dirty = make([]uint64, (n+pageSize*64-1)/(pageSize*64))
}

// mark sets the dirty bits of the pages overlapping [lo, hi).
func (d *MemDevice) mark(lo, hi int) {
	for p := lo >> pageShift; p < (hi+pageSize-1)>>pageShift; p++ {
		d.dirty[p>>6] |= 1 << (p & 63)
	}
}

// eachDirty calls f with the part of each marked page that lies in
// [lo, hi), in ascending order.
func eachDirty(dirty []uint64, lo, hi int, f func(lo, hi int)) {
	if lo >= hi {
		return
	}
	for wi := lo >> pageShift >> 6; wi <= (hi-1)>>pageShift>>6; wi++ {
		for w := dirty[wi]; w != 0; w &= w - 1 {
			p := wi<<6 + bits.TrailingZeros64(w)
			if s, e := max(p<<pageShift, lo), min((p+1)<<pageShift, hi); s < e {
				f(s, e)
			}
		}
	}
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off < 0 || off+int64(len(p)) > int64(len(d.buf)) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrOutOfRange, off, off+int64(len(p)), len(d.buf))
	}
	copy(p, d.buf[off:])
	return nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrOutOfRange, off)
	}
	end := off + int64(len(p))
	if end > int64(len(d.buf)) {
		if d.fixed {
			return fmt.Errorf("%w: write [%d,%d) of %d", ErrOutOfRange, off, end, len(d.buf))
		}
		d.grow(int(end))
	}
	copy(d.buf[off:], p)
	d.mark(int(off), int(end))
	return nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.buf))
}

// Resize implements Device. Shrinking keeps the freed tail inside the
// buffer's capacity, so a later grow can reuse it — which is why the
// regrown region must be zeroed explicitly: the bytes parked there are
// stale, and a fresh device guarantees zero-fill.
func (d *MemDevice) Resize(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		return fmt.Errorf("%w: negative size %d", ErrOutOfRange, n)
	}
	if n <= int64(len(d.buf)) {
		d.buf = d.buf[:n]
	} else {
		d.grow(int(n))
	}
	return nil
}

// grow extends the device to n > Size() zero-filled bytes. Within
// capacity it zeroes only the marked pages of the regrown range; past
// capacity it copies only the marked pages into the new array.
func (d *MemDevice) grow(n int) {
	old := len(d.buf)
	if n <= cap(d.buf) {
		d.buf = d.buf[:n]
		eachDirty(d.dirty, old, n, func(lo, hi int) { clear(d.buf[lo:hi]) })
		return
	}
	buf, dirty := d.buf, d.dirty
	d.alloc(n)
	eachDirty(dirty, 0, old, func(lo, hi int) { copy(d.buf[lo:hi], buf[lo:hi]) })
	copy(d.dirty, dirty)
}

// Reset makes the device indistinguishable from NewMemDevice(n) while
// reusing the existing backing array when it is large enough: the
// device is resized to n bytes and every byte reads zero, including
// regions regrown from a previous shrink. Only marked pages are
// cleared. This is the recycle point of the trial arena (see pool.go).
func (d *MemDevice) Reset(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative size %d", ErrOutOfRange, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reset(int(n))
	return nil
}

// reset is Reset with d.mu held.
func (d *MemDevice) reset(n int) {
	if n > cap(d.buf) {
		d.alloc(n)
		return
	}
	full := d.buf[:cap(d.buf)]
	eachDirty(d.dirty, 0, len(full), func(lo, hi int) { clear(full[lo:hi]) })
	clear(d.dirty)
	d.buf = full[:n]
}

// Image is an immutable, sparse copy of a MemDevice's contents: the
// device size plus the pages that may hold non-zero bytes. Every byte
// outside those pages is zero.
type Image struct {
	size  int64
	pages []int  // ascending page indices
	data  []byte // pageSize bytes per entry of pages
}

// Snapshot returns an Image of the device's current contents. It copies
// only the marked pages, so a freshly formatted multi-megabyte device
// snapshots to a few hundred KiB.
func (d *MemDevice) Snapshot() *Image {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.buf)
	pages := (n + pageSize - 1) >> pageShift
	count := 0
	for wi, w := range d.dirty[:(pages+63)>>6] {
		if rest := pages - wi<<6; rest < 64 {
			w &= 1<<rest - 1
		}
		count += bits.OnesCount64(w)
	}
	im := &Image{size: int64(n), pages: make([]int, 0, count), data: make([]byte, count<<pageShift)}
	eachDirty(d.dirty, 0, n, func(lo, hi int) {
		copy(im.data[len(im.pages)<<pageShift:], d.buf[lo:hi])
		im.pages = append(im.pages, lo>>pageShift)
	})
	return im
}

// Load replaces the device contents with an exact copy of im, reusing
// the backing array when possible. Equivalent to a Reset to the
// image's size followed by writing back the image's pages.
func (d *MemDevice) Load(im *Image) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reset(int(im.size))
	for i, p := range im.pages {
		lo := p << pageShift
		copy(d.buf[lo:min(lo+pageSize, len(d.buf))], im.data[i<<pageShift:])
		d.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Bytes returns the live buffer (not a copy). Writes through it are
// allowed anywhere in b[:cap(b)]: Bytes marks every page dirty, so the
// next Reset, Resize or Snapshot sees them — at the cost of a
// whole-device clear or copy. Only tests use it, for inspection and
// corruption injection; production code snapshots with Snapshot.
func (d *MemDevice) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.dirty {
		d.dirty[i] = ^uint64(0)
	}
	return d.buf
}

// FileDevice is a Device backed by an *os.File image.
type FileDevice struct {
	f  *os.File
	mu sync.Mutex
}

// OpenFileDevice opens (or creates) an image file as a device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fsim: opening image: %w", err)
	}
	return &FileDevice{f: f}, nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(p []byte, off int64) error {
	n, err := d.f.ReadAt(p, off)
	if err != nil {
		return fmt.Errorf("fsim: image read at %d: %w", off, err)
	}
	if n != len(p) {
		return fmt.Errorf("%w: short read at %d", ErrOutOfRange, off)
	}
	return nil
}

// WriteAt implements Device.
func (d *FileDevice) WriteAt(p []byte, off int64) error {
	if _, err := d.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("fsim: image write at %d: %w", off, err)
	}
	return nil
}

// Size implements Device.
func (d *FileDevice) Size() int64 {
	st, err := d.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Resize implements Device.
func (d *FileDevice) Resize(n int64) error {
	return d.f.Truncate(n)
}

// Close releases the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }
