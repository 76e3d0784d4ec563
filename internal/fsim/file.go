package fsim

import (
	"fmt"
	"sort"
)

// ---------------------------------------------------------------------
// Inode I/O
// ---------------------------------------------------------------------

// inodeLoc returns the group, in-group index, and device byte offset of
// inode ino (1-based, as in ext2).
func (fs *Fs) inodeLoc(ino uint32) (gi uint32, idx uint32, off int64, err error) {
	if ino == 0 || ino > fs.SB.InodesCount {
		return 0, 0, 0, fmt.Errorf("%w: inode %d out of range (1..%d)", ErrNotFound, ino, fs.SB.InodesCount)
	}
	gi = (ino - 1) / fs.SB.InodesPerGroup
	idx = (ino - 1) % fs.SB.InodesPerGroup
	if gi >= uint32(len(fs.GDs)) {
		return 0, 0, 0, fmt.Errorf("%w: inode %d in nonexistent group %d", ErrCorrupt, ino, gi)
	}
	bs := int64(fs.SB.BlockSize())
	off = int64(fs.GDs[gi].InodeTable)*bs + int64(idx)*int64(fs.SB.InodeSize)
	return gi, idx, off, nil
}

// ReadInode loads inode ino.
func (fs *Fs) ReadInode(ino uint32) (*Inode, error) {
	in := new(Inode)
	if err := fs.ReadInodeInto(ino, in); err != nil {
		return nil, err
	}
	return in, nil
}

// ReadInodeInto loads inode ino into in without allocating, reusing
// the Fs scratch buffer. Every field of in is overwritten. The hot
// full-table scans (Audit, resize2fs's minimum-size pass) use this to
// stay allocation-free across thousands of inodes per trial.
func (fs *Fs) ReadInodeInto(ino uint32, in *Inode) error {
	_, _, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	buf := fs.inodeScratch()
	if err := fs.dev.ReadAt(buf, off); err != nil {
		return err
	}
	return DecodeInodeInto(buf, in)
}

// WriteInode stores inode ino.
func (fs *Fs) WriteInode(ino uint32, in *Inode) error {
	_, _, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	buf := fs.inodeScratch()
	in.EncodeInto(buf)
	return fs.dev.WriteAt(buf, off)
}

// initInode marks ino used and writes its initial content.
func (fs *Fs) initInode(ino uint32, in *Inode) error {
	gi, idx, _, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	ibm, err := fs.inodeBitmap(gi)
	if err != nil {
		return err
	}
	if !ibm.Test(int(idx)) {
		ibm.Set(int(idx))
		if err := fs.writeInodeBitmap(gi, ibm); err != nil {
			return err
		}
		fs.GDs[gi].FreeInodesCount--
		fs.SB.FreeInodesCount--
	}
	return fs.WriteInode(ino, in)
}

// AllocInode allocates a free inode, preferring group goal.
func (fs *Fs) AllocInode(goal uint32) (uint32, error) {
	groups := uint32(len(fs.GDs))
	for k := uint32(0); k < groups; k++ {
		gi := (goal + k) % groups
		if fs.GDs[gi].FreeInodesCount == 0 {
			continue
		}
		ibm, err := fs.inodeBitmap(gi)
		if err != nil {
			return 0, err
		}
		idx := ibm.FirstFree(0)
		if idx < 0 || uint32(idx) >= fs.SB.InodesPerGroup {
			continue
		}
		ibm.Set(idx)
		if err := fs.writeInodeBitmap(gi, ibm); err != nil {
			return 0, err
		}
		fs.GDs[gi].FreeInodesCount--
		fs.SB.FreeInodesCount--
		return gi*fs.SB.InodesPerGroup + uint32(idx) + 1, nil
	}
	return 0, fmt.Errorf("%w: no free inodes", ErrNoSpace)
}

// FreeInode releases ino and clears its on-disk content.
func (fs *Fs) FreeInode(ino uint32) error {
	gi, idx, _, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	ibm, err := fs.inodeBitmap(gi)
	if err != nil {
		return err
	}
	if ibm.Test(int(idx)) {
		ibm.Clear(int(idx))
		if err := fs.writeInodeBitmap(gi, ibm); err != nil {
			return err
		}
		fs.GDs[gi].FreeInodesCount++
		fs.SB.FreeInodesCount++
	}
	return fs.WriteInode(ino, &Inode{})
}

// ---------------------------------------------------------------------
// Block allocation (cluster-granular for bigalloc)
// ---------------------------------------------------------------------

// groupOfBlock returns the group containing block b.
func (fs *Fs) groupOfBlock(b uint32) uint32 {
	return (b - fs.SB.FirstDataBlock) / fs.SB.BlocksPerGroup
}

// AllocExtent allocates up to want blocks as one contiguous extent,
// preferring group goal. It returns an extent of at least 1 and at
// most want blocks (allocation granularity is the cluster ratio).
func (fs *Fs) AllocExtent(goal uint32, want uint32) (Extent, error) {
	if want == 0 {
		return Extent{}, fmt.Errorf("fsim: zero-length allocation")
	}
	ratio := fs.SB.ClusterRatio()
	wantClusters := (want + ratio - 1) / ratio
	groups := uint32(len(fs.GDs))
	for k := uint32(0); k < groups; k++ {
		gi := (goal + k) % groups
		if fs.GDs[gi].FreeBlocksCount == 0 {
			continue
		}
		bmap, buf, err := fs.blockBitmap(gi)
		if err != nil {
			return Extent{}, err
		}
		// Try progressively shorter runs.
		for n := wantClusters; n >= 1; n-- {
			start := bmap.FirstFreeRun(0, int(n))
			if start < 0 {
				continue
			}
			bmap.SetRange(start, int(n))
			if err := fs.writeBlockBitmapBuf(gi, buf); err != nil {
				return Extent{}, err
			}
			fs.GDs[gi].FreeBlocksCount -= n * ratio
			fs.SB.FreeBlocksCount -= n * ratio
			first := fs.SB.GroupFirstBlock(gi) + uint32(start)*ratio
			length := n * ratio
			if length > want {
				length = want // tail of the last cluster stays unused
			}
			return Extent{Start: first, Len: length}, nil
		}
	}
	return Extent{}, fmt.Errorf("%w: no free extent of %d blocks", ErrNoSpace, want)
}

// FreeExtent releases the blocks of e.
func (fs *Fs) FreeExtent(e Extent) error {
	if e.Len == 0 {
		return nil
	}
	ratio := fs.SB.ClusterRatio()
	gi := fs.groupOfBlock(e.Start)
	if gi >= uint32(len(fs.GDs)) {
		return fmt.Errorf("%w: extent start %d beyond last group", ErrCorrupt, e.Start)
	}
	bmap, buf, err := fs.blockBitmap(gi)
	if err != nil {
		return err
	}
	first := (e.Start - fs.SB.GroupFirstBlock(gi)) / ratio
	nclusters := (e.Len + ratio - 1) / ratio
	bmap.ClearRange(int(first), int(nclusters))
	if err := fs.writeBlockBitmapBuf(gi, buf); err != nil {
		return err
	}
	fs.GDs[gi].FreeBlocksCount += nclusters * ratio
	fs.SB.FreeBlocksCount += nclusters * ratio
	return nil
}

// ---------------------------------------------------------------------
// File data
// ---------------------------------------------------------------------

// WriteFile replaces ino's contents with data. Small files use
// inline_data when the feature is enabled; otherwise extents are
// allocated (up to MaxInlineExtents runs).
func (fs *Fs) WriteFile(ino uint32, data []byte) error {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return err
	}
	if in.IsDir() {
		return fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	if err := fs.truncateInode(in); err != nil {
		return err
	}
	if err := fs.writeData(in, data); err != nil {
		return err
	}
	return fs.WriteInode(ino, in)
}

// writeData fills in's mapping with data (inode not yet persisted).
func (fs *Fs) writeData(in *Inode, data []byte) error {
	sb := fs.SB
	if sb.HasIncompat(IncompatInlineData) && len(data) <= InlineDataCap {
		in.Flags |= FlagInlineData
		in.Flags &^= FlagExtents
		copy(in.Inline[:], data)
		in.Size = uint32(len(data))
		in.Blocks = 0
		in.ExtentCount = 0
		return nil
	}
	bs := sb.BlockSize()
	need := (uint32(len(data)) + bs - 1) / bs
	if need == 0 {
		in.Size = 0
		in.Blocks = 0
		in.ExtentCount = 0
		return nil
	}
	var extents []Extent
	remaining := need
	goal := uint32(0)
	for remaining > 0 {
		if len(extents) == MaxInlineExtents {
			for _, e := range extents {
				_ = fs.FreeExtent(e)
			}
			return fmt.Errorf("%w: needs more than %d extents", ErrTooBig, MaxInlineExtents)
		}
		e, err := fs.AllocExtent(goal, remaining)
		if err != nil {
			for _, fe := range extents {
				_ = fs.FreeExtent(fe)
			}
			return err
		}
		extents = append(extents, e)
		remaining -= e.Len
		goal = fs.groupOfBlock(e.Start)
	}
	// Write the payload block by block through the scratch buffer.
	blk := fs.blockScratch()
	off := 0
	for _, e := range extents {
		for b := uint32(0); b < e.Len; b++ {
			clear(blk)
			if off < len(data) {
				off += copy(blk, data[off:])
			}
			if err := fs.writeBlock(e.Start+b, blk); err != nil {
				return err
			}
		}
	}
	if sb.HasIncompat(IncompatExtents) {
		in.Flags |= FlagExtents
	}
	in.Flags &^= FlagInlineData
	in.ExtentCount = uint16(len(extents))
	for i := range in.Extents {
		in.Extents[i] = Extent{}
	}
	copy(in.Extents[:], extents)
	in.Size = uint32(len(data))
	in.Blocks = need
	return nil
}

// truncateInode frees all blocks held by in (mapping only; the inode
// is not persisted).
func (fs *Fs) truncateInode(in *Inode) error {
	for i := uint16(0); i < in.ValidExtents(); i++ {
		if err := fs.FreeExtent(in.Extents[i]); err != nil {
			return err
		}
	}
	in.ExtentCount = 0
	in.Size = 0
	in.Blocks = 0
	in.Flags &^= FlagInlineData
	for i := range in.Inline {
		in.Inline[i] = 0
	}
	return nil
}

// ReadFile returns ino's full contents.
func (fs *Fs) ReadFile(ino uint32) ([]byte, error) {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return nil, err
	}
	if in.IsDir() {
		return nil, fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	return fs.readData(in)
}

func (fs *Fs) readData(in *Inode) ([]byte, error) {
	if in.Flags&FlagInlineData != 0 {
		if in.Size > InlineDataCap {
			return nil, fmt.Errorf("%w: inline size %d exceeds capacity", ErrCorrupt, in.Size)
		}
		out := make([]byte, in.Size)
		copy(out, in.Inline[:in.Size])
		return out, nil
	}
	bs := fs.SB.BlockSize()
	var mapped uint32
	for i := uint16(0); i < in.ValidExtents(); i++ {
		mapped += in.Extents[i].Len
	}
	// One exact allocation, filled by direct device reads — no
	// per-block buffers.
	out := make([]byte, 0, int(mapped)*int(bs))
	for i := uint16(0); i < in.ValidExtents(); i++ {
		e := in.Extents[i]
		if e.Start+e.Len > fs.SB.BlocksCount {
			return nil, fmt.Errorf("%w: extent [%d,+%d) beyond end", ErrCorrupt, e.Start, e.Len)
		}
		for b := uint32(0); b < e.Len; b++ {
			n := len(out)
			out = out[:n+int(bs)]
			if err := fs.dev.ReadAt(out[n:], int64(e.Start+b)*int64(bs)); err != nil {
				return nil, err
			}
		}
	}
	if uint32(len(out)) < in.Size {
		return nil, fmt.Errorf("%w: mapped %d bytes < size %d", ErrCorrupt, len(out), in.Size)
	}
	return out[:in.Size], nil
}

// ---------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------

// DirEntry is one directory entry.
type DirEntry struct {
	Ino  uint32
	Name string
	// FileType mirrors ext2's feature-gated dirent file type
	// (0 unknown, 1 file, 2 dir).
	FileType uint8
}

// Directory entry file types.
const (
	FtUnknown uint8 = 0
	FtFile    uint8 = 1
	FtDir     uint8 = 2
)

// ReadDir lists the entries of directory ino (excluding none; "." and
// ".." are present like on ext2).
func (fs *Fs) ReadDir(ino uint32) ([]DirEntry, error) {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return nil, err
	}
	if !in.IsDir() {
		return nil, fmt.Errorf("%w: inode %d", ErrNotDir, ino)
	}
	raw, err := fs.readData(in)
	if err != nil {
		return nil, err
	}
	return decodeDirEntries(raw)
}

func decodeDirEntries(raw []byte) ([]DirEntry, error) {
	var out []DirEntry
	off := 0
	for off+8 <= len(raw) {
		ino := le.Uint32(raw[off:])
		recLen := int(le.Uint16(raw[off+4:]))
		nameLen := int(raw[off+6])
		ftype := raw[off+7]
		if recLen < 8 || off+recLen > len(raw) {
			return nil, fmt.Errorf("%w: dirent rec_len %d at offset %d", ErrCorrupt, recLen, off)
		}
		if nameLen > recLen-8 {
			return nil, fmt.Errorf("%w: dirent name_len %d exceeds rec_len %d", ErrCorrupt, nameLen, recLen)
		}
		if ino != 0 {
			out = append(out, DirEntry{
				Ino:      ino,
				Name:     string(raw[off+8 : off+8+nameLen]),
				FileType: ftype,
			})
		}
		off += recLen
	}
	return out, nil
}

func encodeDirEntries(entries []DirEntry, bs uint32) []byte {
	// Serialize entries packed; the final entry's rec_len pads to the
	// end of the block, as in ext2. Sizing pass first, then one exact
	// allocation — this encoder runs for every directory mutation.
	total := 0
	for i, e := range entries {
		recLen := (8 + len(e.Name) + 3) &^ 3 // 4-byte alignment
		if i == len(entries)-1 {
			// Pad to block boundary.
			used := total + recLen
			pad := int(bs) - used%int(bs)
			if pad != int(bs) {
				recLen += pad
			}
		}
		total += recLen
	}
	raw := make([]byte, total)
	off := 0
	for i, e := range entries {
		recLen := (8 + len(e.Name) + 3) &^ 3
		if i == len(entries)-1 {
			recLen = total - off
		}
		ent := raw[off : off+recLen]
		le.PutUint32(ent[0:], e.Ino)
		le.PutUint16(ent[4:], uint16(recLen))
		ent[6] = uint8(len(e.Name))
		ent[7] = e.FileType
		copy(ent[8:], e.Name)
		off += recLen
	}
	return raw
}

// writeDir replaces directory ino's entry list.
func (fs *Fs) writeDir(ino uint32, entries []DirEntry) error {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return err
	}
	if !in.IsDir() {
		return fmt.Errorf("%w: inode %d", ErrNotDir, ino)
	}
	raw := encodeDirEntries(entries, fs.SB.BlockSize())
	if err := fs.truncateInode(in); err != nil {
		return err
	}
	// Directories never use inline data in the simulator.
	savedIncompat := fs.SB.FeatureIncompat
	fs.SB.FeatureIncompat &^= IncompatInlineData
	err = fs.writeData(in, raw)
	fs.SB.FeatureIncompat = savedIncompat
	if err != nil {
		return err
	}
	return fs.WriteInode(ino, in)
}

// Lookup finds name in directory dir.
func (fs *Fs) Lookup(dir uint32, name string) (uint32, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Ino, nil
		}
	}
	return 0, fmt.Errorf("%w: %q in inode %d", ErrNotFound, name, dir)
}

// addEntry links (name → ino) into dir.
func (fs *Fs) addEntry(dir uint32, name string, ino uint32, ftype uint8) error {
	if name == "" || len(name) > MaxNameLen {
		return fmt.Errorf("fsim: invalid name %q", name)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == name {
			return fmt.Errorf("%w: %q", ErrExists, name)
		}
	}
	entries = append(entries, DirEntry{Ino: ino, Name: name, FileType: ftype})
	return fs.writeDir(dir, entries)
}

// CreateFile creates an empty regular file under parent.
func (fs *Fs) CreateFile(parent uint32, name string) (uint32, error) {
	gi := (parent - 1) / fs.SB.InodesPerGroup
	ino, err := fs.AllocInode(gi)
	if err != nil {
		return 0, err
	}
	if err := fs.WriteInode(ino, &Inode{Mode: ModeFile, LinksCount: 1}); err != nil {
		return 0, err
	}
	if err := fs.addEntry(parent, name, ino, FtFile); err != nil {
		_ = fs.FreeInode(ino)
		return 0, err
	}
	return ino, nil
}

// Mkdir creates a directory under parent with "." and ".." entries.
func (fs *Fs) Mkdir(parent uint32, name string) (uint32, error) {
	gi := (parent - 1) / fs.SB.InodesPerGroup
	ino, err := fs.AllocInode(gi)
	if err != nil {
		return 0, err
	}
	if err := fs.WriteInode(ino, &Inode{Mode: ModeDir, LinksCount: 2}); err != nil {
		return 0, err
	}
	self := []DirEntry{
		{Ino: ino, Name: ".", FileType: FtDir},
		{Ino: parent, Name: "..", FileType: FtDir},
	}
	if err := fs.writeDir(ino, self); err != nil {
		_ = fs.FreeInode(ino)
		return 0, err
	}
	if err := fs.addEntry(parent, name, ino, FtDir); err != nil {
		_ = fs.FreeInode(ino)
		return 0, err
	}
	// Parent gains a link from "..".
	pin, err := fs.ReadInode(parent)
	if err != nil {
		return 0, err
	}
	pin.LinksCount++
	if err := fs.WriteInode(parent, pin); err != nil {
		return 0, err
	}
	fs.GDs[(ino-1)/fs.SB.InodesPerGroup].UsedDirsCount++
	return ino, nil
}

// Unlink removes name from dir, freeing the target when its link count
// drops to zero. Directories must be empty.
func (fs *Fs) Unlink(dir uint32, name string) error {
	if name == "." || name == ".." {
		return fmt.Errorf("fsim: cannot unlink %q", name)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	idx := -1
	var target DirEntry
	for i, e := range entries {
		if e.Name == name {
			idx = i
			target = e
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	in, err := fs.ReadInode(target.Ino)
	if err != nil {
		return err
	}
	if in.IsDir() {
		children, err := fs.ReadDir(target.Ino)
		if err != nil {
			return err
		}
		for _, c := range children {
			if c.Name != "." && c.Name != ".." {
				return fmt.Errorf("fsim: directory %q not empty", name)
			}
		}
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	if err := fs.writeDir(dir, entries); err != nil {
		return err
	}
	if in.IsDir() {
		// Drop "."/".." links and free.
		if err := fs.truncateInode(in); err != nil {
			return err
		}
		if err := fs.FreeInode(target.Ino); err != nil {
			return err
		}
		gi := (target.Ino - 1) / fs.SB.InodesPerGroup
		if fs.GDs[gi].UsedDirsCount > 0 {
			fs.GDs[gi].UsedDirsCount--
		}
		pin, err := fs.ReadInode(dir)
		if err != nil {
			return err
		}
		if pin.LinksCount > 0 {
			pin.LinksCount--
		}
		return fs.WriteInode(dir, pin)
	}
	if in.LinksCount <= 1 {
		if err := fs.truncateInode(in); err != nil {
			return err
		}
		return fs.FreeInode(target.Ino)
	}
	in.LinksCount--
	return fs.WriteInode(target.Ino, in)
}

// PathLookup resolves a slash-separated absolute path to an inode.
func (fs *Fs) PathLookup(path string) (uint32, error) {
	ino := uint32(RootIno)
	start := 0
	for start < len(path) && path[start] == '/' {
		start++
	}
	for start < len(path) {
		end := start
		for end < len(path) && path[end] != '/' {
			end++
		}
		name := path[start:end]
		if name != "" {
			next, err := fs.Lookup(ino, name)
			if err != nil {
				return 0, err
			}
			ino = next
		}
		start = end + 1
	}
	return ino, nil
}

// Extents returns the sorted extent list of ino (for defrag and tests).
func (fs *Fs) Extents(ino uint32) ([]Extent, error) {
	in, err := fs.ReadInode(ino)
	if err != nil {
		return nil, err
	}
	out := make([]Extent, 0, in.ValidExtents())
	for i := uint16(0); i < in.ValidExtents(); i++ {
		out = append(out, in.Extents[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// WriteDirEntries replaces directory ino's entry list. Exported for
// utilities and for fault injection in tests and ConHandleCk.
func (fs *Fs) WriteDirEntries(ino uint32, entries []DirEntry) error {
	return fs.writeDir(ino, entries)
}
