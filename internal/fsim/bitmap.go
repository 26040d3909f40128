package fsim

// Bitmap is a fixed-capacity bit vector backed by a byte slice, used
// for block and inode bitmaps. Bit i set means "in use". The backing
// slice aliases the buffer it was created from, so mutations are
// visible to the caller (and can be written back to the device).
type Bitmap struct {
	bits []byte
	n    int
}

// NewBitmap wraps buf as a bitmap of n bits. buf must hold at least
// (n+7)/8 bytes.
func NewBitmap(buf []byte, n int) Bitmap {
	return Bitmap{bits: buf, n: n}
}

// Len returns the bitmap capacity in bits.
func (b Bitmap) Len() int { return b.n }

// Test reports whether bit i is set. Out-of-range bits read as set,
// so allocation never hands out padding bits.
func (b Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		return true
	}
	return b.bits[i/8]&(1<<uint(i%8)) != 0
}

// Set marks bit i used.
func (b Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.bits[i/8] |= 1 << uint(i%8)
}

// Clear marks bit i free.
func (b Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.bits[i/8] &^= 1 << uint(i%8)
}

// CountFree returns the number of clear bits.
func (b Bitmap) CountFree() int {
	free := 0
	for i := 0; i < b.n; i++ {
		if !b.Test(i) {
			free++
		}
	}
	return free
}

// FirstFree returns the lowest clear bit at or after from, or -1.
func (b Bitmap) FirstFree(from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < b.n; i++ {
		if !b.Test(i) {
			return i
		}
	}
	return -1
}

// FirstFreeRun returns the start of the lowest run of n clear bits at
// or after from, or -1.
func (b Bitmap) FirstFreeRun(from, n int) int {
	if n <= 0 {
		return -1
	}
	run := 0
	start := -1
	for i := max(from, 0); i < b.n; i++ {
		if b.Test(i) {
			run = 0
			start = -1
			continue
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			return start
		}
	}
	return -1
}

// SetRange marks bits [from, from+n) used.
func (b Bitmap) SetRange(from, n int) {
	for i := from; i < from+n; i++ {
		b.Set(i)
	}
}

// ClearRange marks bits [from, from+n) free.
func (b Bitmap) ClearRange(from, n int) {
	for i := from; i < from+n; i++ {
		b.Clear(i)
	}
}

// numSet is a set of block or inode numbers held in a Bitmap that
// grows to the highest number added, so its size follows what an image
// actually claims rather than a superblock count. Numbers past its end
// are absent.
type numSet struct{ bm Bitmap }

// has reports whether v is in the set.
func (s *numSet) has(v uint32) bool { return int(v) < s.bm.n && s.bm.Test(int(v)) }

// add puts v in the set and reports whether it was already there.
func (s *numSet) add(v uint32) bool {
	i := int(v)
	if i >= s.bm.n {
		// Doubling, from one 1 KiB bitmap block's worth of bits, keeps
		// the copies few when claims arrive in no particular order.
		n := (max(i+1, 2*s.bm.n, 1<<13) + 7) &^ 7
		bits := make([]byte, n/8)
		copy(bits, s.bm.bits)
		s.bm = NewBitmap(bits, n)
	}
	if s.bm.Test(i) {
		return true
	}
	s.bm.Set(i)
	return false
}
