package fsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// Differential device test: MemDevice's page-granular bookkeeping is
// checked against a reference model, a plain []byte with NewMemDevice
// semantics (growth zero-fills, Reset zeroes everything), over op
// sequences shared by a table of hand-written cases, seeded random
// sequences and FuzzMemDeviceOps.

// Op kinds of runDeviceOps. Each op is opLen bytes: kind, two
// little-endian uint16 operands x and y, and a fill byte v.
const (
	opWrite        = iota // WriteAt v-pattern of y%9000 bytes at x; may straddle pages or grow
	opResize              // Resize(x): shrink, regrow within capacity, or grow past it
	opReset               // Reset(x), above or below capacity; no page stays marked
	opSnapshotLoad        // Snapshot, Load into the spare device after junking it, swap
	opBytesWrite          // write through Bytes(), odd v also junks the tail past Size
	opKinds

	opLen = 6
)

func op(kind, x, y int, v byte) []byte {
	b := []byte{byte(kind), 0, 0, 0, 0, v}
	binary.LittleEndian.PutUint16(b[1:], uint16(x))
	binary.LittleEndian.PutUint16(b[3:], uint16(y))
	return b
}

func seq(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// refResize returns a copy of ref resized to n bytes, zero-filling growth.
func refResize(ref []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, ref)
	return out
}

var zeroPage [pageSize]byte

// checkPageInvariant reports an unmarked page of d's backing array
// that holds a non-zero byte.
func checkPageInvariant(d *MemDevice) error {
	full := d.buf[:cap(d.buf)]
	for lo := 0; lo < len(full); lo += pageSize {
		p := lo >> pageShift
		if d.dirty[p>>6]&(1<<(p&63)) != 0 {
			continue
		}
		if page := full[lo:min(lo+pageSize, len(full))]; !bytes.Equal(page, zeroPage[:len(page)]) {
			return fmt.Errorf("unmarked page %d holds non-zero bytes", p)
		}
	}
	return nil
}

// runDeviceOps applies the ops encoded in ops to a MemDevice and to
// the reference model and reports the first op after which Size, the
// full contents or the page invariant disagree.
func runDeviceOps(ops []byte) error {
	d, spare := NewMemDevice(0), NewMemDevice(0)
	var ref []byte
	for i := 0; i+opLen <= len(ops); i += opLen {
		kind := ops[i] % opKinds
		x := int(binary.LittleEndian.Uint16(ops[i+1:]))
		y := int(binary.LittleEndian.Uint16(ops[i+3:]))
		v := ops[i+5]
		n := i / opLen
		switch kind {
		case opWrite:
			p := make([]byte, y%9000)
			for j := range p {
				p[j] = v ^ byte(j)
			}
			if err := d.WriteAt(p, int64(x)); err != nil {
				return fmt.Errorf("op %d: WriteAt: %v", n, err)
			}
			if end := x + len(p); end > len(ref) {
				ref = refResize(ref, end)
			}
			copy(ref[x:], p)
		case opResize:
			if err := d.Resize(int64(x)); err != nil {
				return fmt.Errorf("op %d: Resize: %v", n, err)
			}
			ref = refResize(ref, x)
		case opReset:
			if err := d.Reset(int64(x)); err != nil {
				return fmt.Errorf("op %d: Reset: %v", n, err)
			}
			if img := d.Snapshot(); len(img.pages) != 0 {
				return fmt.Errorf("op %d: Reset left %d pages marked", n, len(img.pages))
			}
			ref = make([]byte, x)
		case opSnapshotLoad:
			if err := spare.Resize(int64(y)); err != nil {
				return fmt.Errorf("op %d: spare Resize: %v", n, err)
			}
			junk := spare.Bytes()
			copy(junk[:cap(junk)], bytes.Repeat([]byte{v | 0x80}, cap(junk)))
			img := d.Snapshot()
			if img.size != int64(len(ref)) {
				return fmt.Errorf("op %d: image size %d, want %d", n, img.size, len(ref))
			}
			spare.Load(img)
			d, spare = spare, d
		case opBytesWrite:
			b := d.Bytes()
			if v&1 != 0 {
				copy(b[len(b):cap(b)], bytes.Repeat([]byte{v}, cap(b)-len(b)))
			}
			if len(b) > 0 {
				off := x % len(b)
				for j := off; j < min(off+y%64+1, len(b)); j++ {
					b[j], ref[j] = v|1, v|1
				}
			}
		}
		if d.Size() != int64(len(ref)) {
			return fmt.Errorf("op %d (kind %d): Size = %d, want %d", n, kind, d.Size(), len(ref))
		}
		got := make([]byte, len(ref))
		if err := d.ReadAt(got, 0); err != nil {
			return fmt.Errorf("op %d (kind %d): ReadAt: %v", n, kind, err)
		}
		if j := firstDiff(got, ref); j >= 0 {
			return fmt.Errorf("op %d (kind %d): byte %d = %#x, want %#x", n, kind, j, got[j], ref[j])
		}
		for _, dev := range []*MemDevice{d, spare} {
			if err := checkPageInvariant(dev); err != nil {
				return fmt.Errorf("op %d (kind %d): %v", n, kind, err)
			}
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// deviceOpCases are the hand-written sequences, also the fuzz seeds.
var deviceOpCases = []struct {
	name string
	ops  []byte
}{
	{"straddle-and-grow", seq(
		op(opWrite, 4090, 20, 0x11),    // straddles pages 0/1, grows from 0
		op(opWrite, 10000, 5000, 0x22), // grows past capacity, gap stays zero
		op(opWrite, 8190, 4, 0x33),     // straddle inside the device
	)},
	{"shrink-regrow", seq(
		op(opWrite, 0, 8192, 0x44),
		op(opResize, 5000, 0, 0),  // shrink mid-page, stale tail parked
		op(opResize, 8000, 0, 0),  // regrow within capacity
		op(opResize, 1000, 0, 0),  // shrink again
		op(opResize, 12289, 0, 0), // grow past capacity
		op(opWrite, 12000, 289, 0x55),
		op(opResize, 6000, 0, 0),
		op(opWrite, 7000, 10, 0x66), // growing write regrows within capacity
	)},
	{"reset", seq(
		op(opWrite, 100, 8000, 0x77),
		op(opResize, 3000, 0, 0),
		op(opReset, 3001, 0, 0), // below capacity
		op(opWrite, 0, 50, 0x78),
		op(opReset, 70000, 0, 0), // above capacity
		op(opWrite, 65000, 4000, 0x79),
		op(opReset, 4097, 0, 0),
	)},
	{"snapshot-load", seq(
		op(opWrite, 4096, 100, 0x88),
		op(opWrite, 20000, 3, 0x89),
		op(opSnapshotLoad, 0, 60000, 0x01), // spare: larger, junked
		op(opWrite, 30001, 7000, 0x8A),
		op(opSnapshotLoad, 0, 10, 0x02), // spare: small size, junked capacity
		op(opResize, 2000, 0, 0),
		op(opSnapshotLoad, 0, 40000, 0x03), // image ends mid-page
		op(opResize, 50000, 0, 0),
	)},
	{"bytes", seq(
		op(opWrite, 0, 5000, 0x99),
		op(opBytesWrite, 4095, 10, 0x9B), // straddles, junks the tail
		op(opResize, 9000, 0, 0),         // regrow over the junked tail
		op(opBytesWrite, 8999, 0, 0x9A),
		op(opReset, 9000, 0, 0),
		op(opBytesWrite, 0, 63, 0x9D),
		op(opSnapshotLoad, 0, 100, 0x04),
	)},
}

func TestMemDeviceMatchesReference(t *testing.T) {
	for _, c := range deviceOpCases {
		if err := runDeviceOps(c.ops); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ops := make([]byte, opLen*(1+rng.Intn(40)))
		rng.Read(ops)
		if err := runDeviceOps(ops); err != nil {
			t.Fatalf("random sequence %x: %v", ops, err)
		}
	}
}

func FuzzMemDeviceOps(f *testing.F) {
	for _, c := range deviceOpCases {
		f.Add(c.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64*opLen {
			ops = ops[:64*opLen]
		}
		if err := runDeviceOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
