package fsim

import "sync"

// Trial arena: the sweep applications (ConHandleCk, ConCrashCk,
// ConBugCk) run thousands of short trials, each of which formats and
// audits a private multi-megabyte device. Allocating a fresh zeroed
// MemDevice per trial made the allocator the scaling bottleneck —
// every worker spent its time zeroing 16 MB buffers and feeding the
// GC, so adding workers made the sweep *slower*. The arena recycles
// device buffers across trials instead.
//
// Invariants:
//
//   - GetDevice(n) is observationally identical to NewMemDevice(n):
//     the device has size n and every byte reads zero, no matter what
//     the previous trial wrote (including faultdev crash/torn-write
//     poisoning). The page invariant carries this: every byte of a
//     MemDevice's backing array on an unmarked page is zero, so
//     MemDevice.Reset clears exactly the marked pages and recycling
//     costs O(pages the trial wrote), not O(device size).
//   - LoadDevice(im) is observationally identical to a fresh device
//     holding im: the recycled device is reset as above and then only
//     the image's pages are copied in.
//   - A device handed to PutDevice must not be used afterwards; the
//     caller releases it only once nothing retains it (trial results
//     carry strings and counters, never the device or Fs).
//   - The pool is concurrency-safe; each checkout is exclusive, so
//     trials on different workers never share a buffer and the
//     byte-identical-output-for-any-worker-count guarantee holds.
var devicePool sync.Pool

// GetDevice checks a zero-filled n-byte device out of the trial arena,
// reusing a recycled buffer when one is available.
func GetDevice(n int64) *MemDevice {
	if v := devicePool.Get(); v != nil {
		d := v.(*MemDevice)
		if d.Reset(n) == nil {
			return d
		}
	}
	return NewMemDevice(n)
}

// LoadDevice checks a device out of the arena holding an exact copy of
// im, the restore path of crash-recovery trials.
func LoadDevice(im *Image) *MemDevice {
	d, _ := devicePool.Get().(*MemDevice)
	if d == nil {
		d = &MemDevice{}
	}
	d.Load(im)
	return d
}

// PutDevice returns a device to the arena for reuse. Fixed-size
// devices keep their rejection semantics and are not pooled. Putting
// nil is a no-op.
func PutDevice(d *MemDevice) {
	if d == nil || d.fixed {
		return
	}
	devicePool.Put(d)
}
