package fsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Differential audit test: Audit is checked against auditRef, the
// map-based audit it replaced, on damaged images. Each case picks one
// of the base images below and applies a sequence of targeted
// mutations read from a byte string; TestAuditMatchesReference (seeded)
// and FuzzAudit share the driver. Random byte flips alone rarely build
// an extent overlap or a bad dirent, so most ops aim at one structure
// the audit checks.

// auditGeometries are the base layouts: every way a group can sit in
// the owned-block bitmap and in its own bitmap block.
var auditGeometries = []struct {
	name string
	g    Geometry
}{
	// first_data_block 1, three groups, a short last group whose
	// bitmap ends in a partial byte.
	{"1k-short-last", Geometry{BlockSize: 1024, BlocksCount: 20000, InodeSize: 128,
		InodesPerGroup: 256, RoCompat: RoCompatSparseSuper, Incompat: IncompatFiletype}},
	// One short group of 4 KiB blocks.
	{"4k", Geometry{BlockSize: 4096, BlocksCount: 6000, InodeSize: 256,
		InodesPerGroup: 512, Incompat: IncompatFiletype}},
	// bigalloc: 2-block clusters, not byte-aligned in the owned bitmap.
	{"bigalloc", Geometry{BlockSize: 1024, ClusterSize: 2048, BlocksCount: 20000,
		InodeSize: 128, InodesPerGroup: 128, RoCompat: RoCompatSparseSuper | RoCompatBigalloc,
		Incompat: IncompatFiletype}},
	{"meta_bg", Geometry{BlockSize: 1024, BlocksCount: 20000, InodeSize: 128,
		InodesPerGroup: 256, RoCompat: RoCompatSparseSuper, Incompat: IncompatFiletype | IncompatMetaBG}},
	{"sparse_super2", Geometry{BlockSize: 1024, BlocksCount: 20000, InodeSize: 256,
		InodesPerGroup: 64, Compat: CompatSparseSuper2, BackupBgs: [2]uint32{1, 2},
		Incompat: IncompatFiletype}},
}

// auditBase is one formatted and populated base image.
type auditBase struct {
	name string
	img  *Image
	inos []uint32 // the population's in-use inodes
	dirs []uint32 // its directories
}

var (
	auditBasesOnce sync.Once
	auditBasesList []auditBase
	auditBasesErr  error
)

// auditBases formats and populates every base geometry once.
func auditBases() ([]auditBase, error) {
	auditBasesOnce.Do(func() {
		for _, ag := range auditGeometries {
			b, err := buildAuditBase(ag.g)
			if err != nil {
				auditBasesErr = fmt.Errorf("base %s: %w", ag.name, err)
				return
			}
			b.name = ag.name
			auditBasesList = append(auditBasesList, b)
		}
	})
	return auditBasesList, auditBasesErr
}

// buildAuditBase creates root/d/{a,b,e/{c,g}} and root/f beside
// lost+found, and checks that both audits find it clean.
func buildAuditBase(g Geometry) (auditBase, error) {
	dev := NewMemDevice(0)
	fs, err := Create(dev, g)
	if err != nil {
		return auditBase{}, err
	}
	b := auditBase{inos: []uint32{RootIno, FirstIno}, dirs: []uint32{RootIno, FirstIno}}
	mkdir := func(parent uint32, name string) uint32 {
		ino, e := fs.Mkdir(parent, name)
		if e != nil && err == nil {
			err = e
		}
		b.inos = append(b.inos, ino)
		b.dirs = append(b.dirs, ino)
		return ino
	}
	file := func(parent uint32, name string, size int) {
		ino, e := fs.CreateFile(parent, name)
		if e == nil {
			e = fs.WriteFile(ino, bytes.Repeat([]byte{byte(len(b.inos))}, size))
		}
		if e != nil && err == nil {
			err = e
		}
		b.inos = append(b.inos, ino)
	}
	d := mkdir(RootIno, "d")
	file(d, "a", 3000)
	file(d, "b", 2000)
	e := mkdir(d, "e")
	file(e, "c", 9000)
	file(e, "g", 12000)
	file(RootIno, "f", 1)
	if err != nil {
		return auditBase{}, err
	}
	if probs := fs.Audit(); len(probs) != 0 {
		return auditBase{}, fmt.Errorf("base not clean: %v", probs)
	}
	if probs := fs.auditRef(); len(probs) != 0 {
		return auditBase{}, fmt.Errorf("base not clean under the reference: %v", probs)
	}
	b.img = dev.Snapshot()
	return b, nil
}

// opReader hands out the operand bytes of a mutation sequence; an
// exhausted input reads as zeros.
type opReader struct{ b []byte }

func (r *opReader) u8() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *opReader) u16() uint32 { return uint32(r.u8()) | uint32(r.u8())<<8 }
func (r *opReader) u32() uint32 { return r.u16() | r.u16()<<16 }

// Mutation kinds. Device mutations apply in input order; the in-memory
// superblock and descriptor mutations (from mutGroupCount on) apply
// after all of them, so every device mutation sees the base geometry.
const (
	mutBlockBit       = iota // toggle one block-bitmap bit
	mutInodeBit              // toggle one inode-bitmap bit
	mutBitmapByte            // overwrite one block- or inode-bitmap byte
	mutExtent                // point an inode extent at a short, long, straddling, wrapping or low range
	mutOverlap               // copy another inode's extent: shared blocks
	mutExtentCount           // set ExtentCount, up to past MaxInlineExtents
	mutLinks                 // set LinksCount to 0..3 (0 frees the inode)
	mutMode                  // toggle the directory or file mode bit
	mutCloneInode            // copy an inode into any slot of any group
	mutDirAdd                // add a dirent to any inode number
	mutDirDrop               // drop a dirent, "." and ".." included
	mutDirRetarget           // point a dirent at another inode
	mutBackupSuper           // garble, stale or unmagic a backup superblock
	mutRawFlip               // xor one byte anywhere on the device
	mutGroupCount            // a descriptor's free-blocks, free-inodes or used-dirs count
	mutGroupPointer          // a descriptor's bitmap or inode-table block
	mutSuperCount            // the superblock's free-blocks or free-inodes count
	mutBlocksPerGroup        // blocks_per_group, narrower or wider than the bitmap block
	mutInodesPerGroup        // inodes_per_group, including 0 and high-bit flips
	mutInodesCount           // inodes_count, including high-bit flips
	mutBlocksCount           // blocks_count near its value, or a group more or less
	mutFirstDataBlock        // first_data_block 0..2
	mutKinds
)

// maxAuditOps bounds the mutations of one case.
const maxAuditOps = 32

// runAuditCase builds the image data describes, audits it with Audit
// and auditRef, and reports any difference. It returns Audit's
// problems.
func runAuditCase(data []byte) ([]Problem, error) {
	bases, err := auditBases()
	if err != nil {
		return nil, err
	}
	r := &opReader{data}
	base := &bases[int(r.u8())%len(bases)]
	dev := LoadDevice(base.img)
	defer PutDevice(dev)
	fs, err := Open(dev)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %v", base.name, err)
	}
	var late []func()
	for n := 0; n < maxAuditOps && len(r.b) > 0; n++ {
		if f := mutate(fs, base, r); f != nil {
			late = append(late, f)
		}
	}
	for _, f := range late {
		f()
	}

	got := fs.Audit()
	sb := fs.SB
	// The intended differences: Audit stops at an inodes_per_group
	// outside 1..8×blocksize, where auditRef would report every inode
	// slot past the bitmap block, and at an inodes_count beyond the
	// inode tables, where auditRef would report every missing inode.
	// Either stop ends the list, after pass-0 problems only.
	stop := ""
	switch {
	case sb.InodesPerGroup == 0 || sb.InodesPerGroup > 8*sb.BlockSize():
		stop = "inodes_per_group "
	case uint64(sb.InodesCount) > uint64(len(fs.GDs))*uint64(sb.InodesPerGroup):
		stop = "inodes_count "
	}
	if n := len(got); stop != "" && n > 0 && strings.HasPrefix(got[n-1].Msg, stop) {
		for _, p := range got {
			if p.Code != PBadSuper {
				return got, fmt.Errorf("%s: stop at %q: non-pass-0 problem %v", base.name, stop, p)
			}
		}
		return got, nil
	}
	want := fs.auditRef()
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
			i++
		}
		return got, fmt.Errorf("%s: Audit and auditRef differ at problem %d of %d/%d:\n  Audit:    %s\n  auditRef: %s",
			base.name, i, len(got), len(want), problemAt(got, i), problemAt(want, i))
	}
	return got, nil
}

func problemAt(probs []Problem, i int) string {
	if i >= len(probs) {
		return "(none)"
	}
	return fmt.Sprintf("%+v", probs[i])
}

// mutate applies one mutation read from r. In-memory metadata
// mutations are returned for later application instead.
func mutate(fs *Fs, base *auditBase, r *opReader) func() {
	sb := fs.SB
	bs := sb.BlockSize()
	groups := uint32(len(fs.GDs))
	switch kind := int(r.u8()) % mutKinds; kind {
	case mutBlockBit, mutInodeBit:
		g, bit := r.u8(), int(r.u16()%(8*bs))
		blk := fs.GDs[uint32(g)%groups].BlockBitmap
		if kind == mutInodeBit {
			blk = fs.GDs[uint32(g)%groups].InodeBitmap
		}
		editBlock(fs, blk, func(b []byte) { b[bit/8] ^= 1 << (bit % 8) })
	case mutBitmapByte:
		which, g, off, v := r.u8(), r.u8(), r.u16()%bs, r.u8()
		gd := fs.GDs[uint32(g)%groups]
		blk := gd.BlockBitmap
		if which&1 != 0 {
			blk = gd.InodeBitmap
		}
		editBlock(fs, blk, func(b []byte) { b[off] = v })
	case mutExtent:
		ino, k, mode, s, l := pickIno(fs, base, r), r.u8()%MaxInlineExtents, r.u8()%5, r.u32(), r.u32()
		bc := sb.BlocksCount
		switch mode {
		case 0: // short, possibly past the end
			s, l = s%bc, l%16+1
		case 1: // in range, up to the rest of the fs (or empty)
			s %= bc
			l %= bc - s + 1
		case 2: // straddles the end
			s, l = bc-s%8-1, l%16+2
		case 3: // wraps past 2^32 and lands back inside the fs
			l = -s + l%bc
		case 4: // low blocks: the superblock, descriptors and metadata
			s, l = s%64, l%8
		}
		editInode(fs, ino, func(in *Inode) {
			in.Extents[k] = Extent{Start: s, Len: l}
			in.ExtentCount = max(in.ExtentCount, uint16(k)+1)
		})
	case mutOverlap:
		dst, src, k, j := pickIno(fs, base, r), pickIno(fs, base, r), r.u8()%MaxInlineExtents, r.u8()%MaxInlineExtents
		var from Inode
		if fs.ReadInodeInto(src, &from) != nil {
			return nil
		}
		editInode(fs, dst, func(in *Inode) {
			in.Extents[k] = from.Extents[j]
			in.ExtentCount = max(in.ExtentCount, uint16(k)+1)
		})
	case mutExtentCount:
		ino, v := pickIno(fs, base, r), []uint16{0, 1, 2, 3, 4, 5, 255, 65535}[r.u8()%8]
		editInode(fs, ino, func(in *Inode) { in.ExtentCount = v })
	case mutLinks:
		ino, v := pickIno(fs, base, r), uint16(r.u8()%4)
		editInode(fs, ino, func(in *Inode) { in.LinksCount = v })
	case mutMode:
		ino, bit := pickIno(fs, base, r), []uint16{ModeDir, ModeFile, ModeDir | ModeFile}[r.u8()%3]
		editInode(fs, ino, func(in *Inode) { in.Mode ^= bit })
	case mutCloneInode:
		src, dst := pickIno(fs, base, r), r.u16()%sb.InodesCount+1
		var in Inode
		if fs.ReadInodeInto(src, &in) == nil {
			_ = fs.WriteInode(dst, &in)
		}
	case mutDirAdd, mutDirDrop, mutDirRetarget:
		dir, i := base.dirs[int(r.u8())%len(base.dirs)], int(r.u8())
		target := pickIno(fs, base, r)
		if r.u8()%4 == 0 {
			target = r.u16() % (sb.InodesCount + 16) // may be free, reserved or past the end
		}
		editDir(fs, dir, func(ents []DirEntry) []DirEntry {
			switch {
			case kind == mutDirAdd:
				return append(ents, DirEntry{Ino: target, Name: fmt.Sprintf("n%d", i), FileType: FtFile})
			case len(ents) == 0:
				return ents
			case kind == mutDirDrop:
				i %= len(ents)
				return append(ents[:i], ents[i+1:]...)
			default:
				ents[i%len(ents)].Ino = target
				return ents
			}
		})
	case mutBackupSuper:
		g, mode, v := r.u8(), r.u8()%3, r.u8()
		if groups < 2 {
			return nil
		}
		gi := 1 + uint32(g)%(groups-1)
		if !sb.HasSuperBackup(gi) {
			return nil
		}
		editBlock(fs, fs.groupMeta(gi).SuperBlk, func(b []byte) {
			switch mode {
			case 0: // garbage
				for i := range b {
					b[i] = v
				}
			case 1: // stale blocks_count
				if bsb, err := DecodeSuperblock(b); err == nil {
					bsb.BlocksCount += uint32(v) + 1
					copy(b, bsb.Encode())
				}
			case 2: // bad magic
				b[36] ^= 0xFF
			}
		})
	case mutRawFlip:
		blk, off, x := r.u32()%uint32(fs.dev.Size()/int64(bs)), r.u16()%bs, r.u8()|1
		editBlock(fs, blk, func(b []byte) { b[off] ^= x })

	case mutGroupCount:
		g, field, d := uint32(r.u8())%groups, r.u8()%3, uint32(int8(r.u8()))
		return func() {
			gd := fs.GDs[g]
			*[]*uint32{&gd.FreeBlocksCount, &gd.FreeInodesCount, &gd.UsedDirsCount}[field] += d
		}
	case mutGroupPointer:
		g, field, mode, v := uint32(r.u8())%groups, r.u8()%3, r.u8()%3, r.u32()
		return func() {
			gd := fs.GDs[g]
			p := []*uint32{&gd.BlockBitmap, &gd.InodeBitmap, &gd.InodeTable}[field]
			switch mode {
			case 0: // another group's, or a neighbouring metadata block
				other := fs.GDs[v%groups]
				*p = []uint32{other.BlockBitmap, other.InodeBitmap, other.InodeTable}[v/groups%3]
			case 1: // shifted by a few blocks
				*p += v%8 - 4
			case 2: // anywhere, usually past the device
				*p = v
			}
		}
	case mutSuperCount:
		field, d := r.u8()%2, uint32(int8(r.u8()))
		return func() { *[]*uint32{&sb.FreeBlocksCount, &sb.FreeInodesCount}[field] += d }
	case mutBlocksPerGroup:
		mode, v := r.u8()%3, r.u16()
		return func() {
			bpg := sb.BlocksPerGroup
			switch mode {
			case 0:
				bpg += v%17 - 8
			case 1:
				bpg += v % (bpg / 8) // wider than the bitmap block
			case 2:
				bpg -= v % (bpg / 2)
			}
			sb.BlocksPerGroup = max(bpg, 1)
		}
	case mutInodesPerGroup:
		mode, v := r.u8()%5, r.u16()
		return func() {
			ipg := sb.InodesPerGroup
			switch mode {
			case 0:
				ipg += v%17 - 8
			case 1:
				ipg *= 2
			case 2:
				ipg /= 2
			case 3:
				ipg = v
			case 4: // high-bit flips, far past the bitmap block
				ipg ^= 1 << (v % 32)
			}
			sb.InodesPerGroup = ipg
		}
	case mutInodesCount:
		mode, v := r.u8()%3, r.u8()
		return func() {
			switch mode {
			case 0:
				sb.InodesCount += uint32(int8(v))
			case 1:
				sb.InodesCount += sb.InodesPerGroup
			case 2:
				sb.InodesCount ^= 1 << (v % 26)
			}
		}
	case mutBlocksCount:
		mode, v := r.u8()%2, r.u8()
		return func() {
			if mode == 0 {
				sb.BlocksCount += uint32(int8(v))
			} else if v&1 == 0 {
				sb.BlocksCount += sb.BlocksPerGroup
			} else {
				sb.BlocksCount -= min(sb.BlocksCount, sb.BlocksPerGroup)
			}
		}
	case mutFirstDataBlock:
		v := uint32(r.u8() % 3)
		return func() { sb.FirstDataBlock = v }
	}
	return nil
}

// pickIno reads an inode number: one of the population's, or any slot.
func pickIno(fs *Fs, base *auditBase, r *opReader) uint32 {
	v := r.u16()
	if v&1 == 0 {
		return base.inos[int(v>>1)%len(base.inos)]
	}
	return (v>>1)%fs.SB.InodesCount + 1
}

// editInode rewrites ino through f; an unreadable inode is left alone.
func editInode(fs *Fs, ino uint32, f func(*Inode)) {
	var in Inode
	if fs.ReadInodeInto(ino, &in) != nil {
		return
	}
	f(&in)
	_ = fs.WriteInode(ino, &in)
}

// editBlock rewrites block blk through f; an unreadable block is left
// alone.
func editBlock(fs *Fs, blk uint32, f func([]byte)) {
	b, err := fs.ReadBlock(blk)
	if err != nil {
		return
	}
	f(b)
	_ = fs.WriteBlock(blk, b)
}

// editDir rewrites a one-block directory's entries in place, without
// allocating: the damage stays where the audit will look for it.
func editDir(fs *Fs, dir uint32, f func([]DirEntry) []DirEntry) {
	var in Inode
	if fs.ReadInodeInto(dir, &in) != nil || in.ExtentCount == 0 || in.Size != fs.SB.BlockSize() {
		return
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	raw := encodeDirEntries(f(ents), fs.SB.BlockSize())
	if uint32(len(raw)) == fs.SB.BlockSize() {
		_ = fs.WriteBlock(in.Extents[0].Start, raw)
	}
}

// auditSeeds are hand-written cases, one or two per mutation kind;
// they also seed FuzzAudit.
func auditSeeds() [][]byte {
	var seeds [][]byte
	for gi := range auditGeometries {
		for kind := 0; kind < mutKinds; kind++ {
			seeds = append(seeds, []byte{byte(gi), byte(kind), 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7})
		}
		// An extent of /d/a copied into /d/b, then the descriptor counts
		// recounted wrong: overlap plus count problems.
		seeds = append(seeds, []byte{byte(gi), mutOverlap, 6, 0, 8, 0, 0, 0, mutGroupCount, 0, 0, 5})
	}
	return seeds
}

// TestAuditMatchesReference diffs Audit against auditRef on the seeds
// and on several hundred seeded random mutation sequences, and checks
// that the images between them raise every problem code.
func TestAuditMatchesReference(t *testing.T) {
	cases := auditSeeds()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		// Mostly one to three mutations, so that single problems whose
		// exact text matters are not drowned out; some long sequences.
		data := make([]byte, 1+rng.Intn([]int{6, 12, 24, 120}[i%4]))
		rng.Read(data)
		cases = append(cases, data)
	}
	seen := map[ProblemCode]int{}
	dirty := 0
	for _, data := range cases {
		probs, err := runAuditCase(data)
		if err != nil {
			t.Fatalf("case %x: %v", data, err)
		}
		if len(probs) > 0 {
			dirty++
		}
		for c, n := range CountByCode(probs) {
			seen[c] += n
		}
	}
	t.Logf("%d images, %d with problems; problems by code: %v", len(cases), dirty, seen)
	for c := range problemNames {
		if seen[c] == 0 {
			t.Errorf("no case raised %s", c)
		}
	}
	if dirty < len(cases)/2 {
		t.Errorf("only %d of %d images have problems", dirty, len(cases))
	}
}

func FuzzAudit(f *testing.F) {
	for _, s := range auditSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runAuditCase(data); err != nil {
			t.Fatal(err)
		}
	})
}
