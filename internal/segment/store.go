package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
	"repro/internal/invindex"
	"repro/internal/social"
)

// File-name vocabulary of a segment directory. Artifacts are written under
// a hidden tmp name, fsync'd, renamed into place, and become live only when
// CURRENT flips to a MANIFEST that references them; anything not referenced
// by the current MANIFEST is garbage the next gc pass may remove.
const (
	currentName    = "CURRENT"
	currentTmpName = "CURRENT.tmp"
	manifestPrefix = "MANIFEST-"
	segSuffix      = ".tkseg"
	segFilePrefix  = "seg-"
	tmpSegPrefix   = ".tmp-seg-"

	manifestVersion = 1
)

// segFileName renders sealed segment file names; tmpSegName the hidden
// name a segment is written under before its rename.
func segFileName(seq uint64) string { return fmt.Sprintf("seg-%08d%s", seq, segSuffix) }
func tmpSegName(seq uint64) string  { return fmt.Sprintf("%s%08d", tmpSegPrefix, seq) }
func manifestName(seq uint64) string {
	return fmt.Sprintf("%s%08d", manifestPrefix, seq)
}

// Options configures a Store.
type Options struct {
	// GeohashLen is the key precision; it must match the index the
	// engine queries with.
	GeohashLen int
	// BucketWidth is the time-bucket width: a memtable seals when ingest
	// crosses a bucket boundary, so each segment covers at most one
	// bucket and a query's time window prunes whole segments by their
	// SID (timestamp) range. Non-positive selects 30 days.
	BucketWidth time.Duration
	// BlockSize is the postings block size used when sealing.
	// Non-positive selects invindex.DefaultBlockSize.
	BlockSize int
	// MemtableRows force-seals the memtable when it buffers this many
	// rows, regardless of bucket boundaries. Non-positive disables
	// size-based seals.
	MemtableRows int
	// CompactFanIn is how many adjacent same-size-class segments a
	// compaction round merges into one. Non-positive selects 4.
	CompactFanIn int
}

func (o *Options) normalize() {
	if o.BucketWidth <= 0 {
		o.BucketWidth = 30 * 24 * time.Hour
	}
	if o.BlockSize <= 0 {
		o.BlockSize = invindex.DefaultBlockSize
	}
	if o.CompactFanIn <= 0 {
		o.CompactFanIn = 4
	}
}

// PostingsSource is the read contract a store view serves. The query path
// is structurally the engine's PostingsSource plus its RowSource, declared
// here so the package has no dependency on the engine: postings per ⟨cell,
// term⟩ that name rows by ordinal, and the records and post ordinals those
// row ordinals index.
// FetchPostings (tweet IDs) and ResolveRows (an ascending SID batch) are
// the tools' and tests' view of the same data.
type PostingsSource interface {
	GeohashLen() int
	OpenPostings(geohash, term string) (*invindex.PostingsIterator, error)
	Records() []social.RowMeta
	PostOrdinals() []uint32
	FetchPostings(geohash, term string) ([]invindex.Posting, error)
	ResolveRows(sids []social.PostID, out []social.RowMeta) int
}

// View is one source of the store in time order — a sealed segment or the
// memtable, answering for its own postings and its own rows — with the SID
// range the engine's partition pruning tests query windows against. A
// zero MaxSID means unbounded (the memtable view: later ingest only
// appends larger SIDs).
type View struct {
	Source PostingsSource
	MinSID social.PostID
	MaxSID social.PostID
}

// manifestSegment is one segment's entry in the MANIFEST.
type manifestSegment struct {
	File   string `json:"file"`
	MinSID int64  `json:"min_sid"`
	MaxSID int64  `json:"max_sid"`
	Rows   int    `json:"rows"`
	Keys   int    `json:"keys"`
	Size   int64  `json:"size"`
}

// check requires the entry to describe seg, the file it names, whose
// sequence number must be below the manifest's next one: a MANIFEST whose
// bytes rotted under valid JSON must not open.
func (ms manifestSegment) check(seg *Segment, nextSeq uint64) error {
	var seq uint64
	if _, err := fmt.Sscanf(ms.File, segFilePrefix+"%d", &seq); err != nil || seq >= nextSeq ||
		ms.File != segFileName(seq) {
		return fmt.Errorf("%w: manifest names %q beside next sequence %d", ErrCorrupt, ms.File, nextSeq)
	}
	if ms.MinSID != int64(seg.MinSID()) || ms.MaxSID != int64(seg.MaxSID()) || ms.Rows != seg.NumRows() ||
		ms.Keys != seg.NumKeys() || ms.Size != int64(seg.SizeBytes()) {
		return fmt.Errorf("%w: manifest entry %+v disagrees with the segment", ErrCorrupt, ms)
	}
	return nil
}

// manifestData is the MANIFEST body: the authoritative list of live
// segment files in time order.
type manifestData struct {
	Version  int               `json:"version"`
	NextSeq  uint64            `json:"next_seq"`
	Segments []manifestSegment `json:"segments"`
}

// Store is the LSM-style segment store: sealed immutable segments in time
// order plus one mutable memtable at the head. Mutations (ingest, seal,
// compaction, close) must be serialized by the caller — the segmented
// system funnels them through one lock; concurrent readers are safe at
// any point, including across seals and compactions, because the mappings
// of replaced segments are retired (kept mapped) rather than unmapped until
// Close.
//
// A store with a directory (OpenStore) writes each sealed segment to a file
// and commits every change to its MANIFEST. A store without one (OpenHeap)
// runs the same seal and compaction code, but keeps the sealed images on the
// heap and commits nothing.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	segs     []*Segment
	segFiles []string // file name per live segment, parallel to segs
	mem      *Memtable
	nextSeq  uint64
	manSeq   uint64
	retired  [][]byte // mappings of segments compaction replaced; unmapped at Close

	seals       atomic.Int64
	compactions atomic.Int64
}

// OpenStore opens (or creates) a segment store in dir. A directory without
// a CURRENT file is an empty store; otherwise every segment the current
// MANIFEST references is opened and checksummed — the commit discipline
// guarantees the set is complete or the previous CURRENT is still in
// place. A zero opts.GeohashLen takes the segments' precision.
func OpenStore(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("segment: store needs a directory")
	}
	if err := fsx.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, manSeq, err := readCurrentManifest(dir)
	if err != nil {
		return nil, err
	}
	var segs []*Segment
	var files []string
	if man != nil {
		for _, ms := range man.Segments {
			seg, err := openFile(filepath.Join(dir, ms.File))
			if err == nil {
				segs = append(segs, seg)
				err = ms.check(seg, man.NextSeq)
			}
			if err != nil {
				for _, s := range segs {
					s.Close()
				}
				return nil, fmt.Errorf("segment: opening %s: %w", ms.File, err)
			}
			files = append(files, ms.File)
		}
	}
	if opts.GeohashLen == 0 && len(segs) > 0 {
		opts.GeohashLen = segs[0].GeohashLen()
	}
	// A directory holds its system's whole corpus in time order, so its
	// rows number the corpus table's posts: segment k's row i is post
	// base_k+i, base_k the rows of the segments before it.
	base := uint32(0)
	for _, seg := range segs {
		seg.posts = make([]uint32, seg.NumRows())
		for i := range seg.posts {
			seg.posts[i] = base + uint32(i)
		}
		base += uint32(seg.NumRows())
	}
	st, err := newStore(dir, opts)
	if err == nil {
		st.segs, st.segFiles = segs, files
		err = st.checkSealed()
	}
	if err != nil {
		for _, s := range segs {
			s.Close()
		}
		return nil, err
	}
	if man != nil {
		st.manSeq = manSeq
		st.nextSeq = man.NextSeq
	}
	return st, nil
}

// CreateStore opens an empty store in dir, whatever dir holds. Nothing is
// read of a store committed there before: new files are numbered past every
// file in dir, so the first commit (a BulkLoad or a seal) replaces that
// store's segment set atomically, and its gc removes the old files.
func CreateStore(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("segment: store needs a directory")
	}
	st, err := newStore(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := fsx.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var seq uint64
		name := e.Name()
		switch {
		case strings.HasPrefix(name, manifestPrefix):
			if _, err := fmt.Sscanf(name, manifestPrefix+"%d", &seq); err == nil {
				st.manSeq = max(st.manSeq, seq)
			}
		case strings.HasPrefix(name, segFilePrefix):
			if _, err := fmt.Sscanf(name, segFilePrefix+"%d", &seq); err == nil {
				st.nextSeq = max(st.nextSeq, seq+1)
			}
		case strings.HasPrefix(name, tmpSegPrefix):
			if _, err := fmt.Sscanf(name, tmpSegPrefix+"%d", &seq); err == nil {
				st.nextSeq = max(st.nextSeq, seq+1)
			}
		}
	}
	return st, nil
}

// OpenHeap returns a store with no directory whose first sealed segments are
// sealed, in time order, served as they are: neither copied nor split at
// bucket boundaries.
func OpenHeap(opts Options, sealed ...*Segment) (*Store, error) {
	st, err := newStore("", opts)
	if err != nil {
		return nil, err
	}
	st.segs = sealed
	st.segFiles = make([]string, len(sealed))
	if err := st.checkSealed(); err != nil {
		return nil, err
	}
	return st, nil
}

func newStore(dir string, opts Options) (*Store, error) {
	opts.normalize()
	if opts.GeohashLen <= 0 {
		return nil, fmt.Errorf("segment: store needs a geohash length")
	}
	if dir != "" {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		dir = abs
	}
	return &Store{dir: dir, opts: opts, mem: NewMemtable(opts.GeohashLen), nextSeq: 1}, nil
}

// checkSealed verifies that every sealed segment is keyed at the store's
// precision and that their SID ranges ascend without overlap.
func (st *Store) checkSealed() error {
	for i, seg := range st.segs {
		if seg.GeohashLen() != st.opts.GeohashLen {
			return fmt.Errorf("%w: segment %d keyed at geohash length %d, store wants %d",
				ErrCorrupt, i, seg.GeohashLen(), st.opts.GeohashLen)
		}
		if i > 0 && seg.MinSID() <= st.segs[i-1].MaxSID() {
			return fmt.Errorf("%w: segments %d and %d overlap in SID range", ErrCorrupt, i-1, i)
		}
	}
	return nil
}

// readCurrentManifest loads the manifest CURRENT points at; (nil, 0, nil)
// when the store is empty.
func readCurrentManifest(dir string) (*manifestData, uint64, error) {
	cur, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	name := string(bytes.TrimSpace(cur))
	var seq uint64
	if _, err := fmt.Sscanf(name, manifestPrefix+"%08d", &seq); err != nil {
		return nil, 0, fmt.Errorf("%w: CURRENT names %q", ErrCorrupt, name)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, 0, err
	}
	var man manifestData
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, 0, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, name, err)
	}
	if man.Version != manifestVersion {
		return nil, 0, fmt.Errorf("%w: manifest version %d", ErrVersion, man.Version)
	}
	return &man, seq, nil
}

// Dir returns the store directory as an absolute path, "" for a heap store.
func (st *Store) Dir() string { return st.dir }

// Options returns the options the store seals and compacts with.
func (st *Store) Options() Options {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.opts
}

// SetOptions replaces the options later seals and compactions use; what is
// sealed keeps its bucket split. The geohash length cannot change. A
// mutation: caller-serialized.
func (st *Store) SetOptions(opts Options) error {
	opts.normalize()
	if opts.GeohashLen != st.opts.GeohashLen {
		return fmt.Errorf("segment: store keyed at geohash length %d cannot rekey to %d", st.opts.GeohashLen, opts.GeohashLen)
	}
	st.mu.Lock()
	st.opts = opts
	st.mu.Unlock()
	return nil
}

// GeohashLen returns the key precision of every source in the store.
func (st *Store) GeohashLen() int { return st.opts.GeohashLen }

// Empty reports whether the store holds no sealed segments and no
// buffered rows.
func (st *Store) Empty() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs) == 0 && st.mem.Len() == 0
}

// bucketOf maps an SID (a UnixNano timestamp) to its time bucket.
func (st *Store) bucketOf(sid social.PostID) int64 {
	return int64(sid) / st.opts.BucketWidth.Nanoseconds()
}

// Add ingests one post, whose ordinal in the corpus table is post: it lands
// in the memtable (indexed immediately)
// and seals the previous bucket's memtable first if the post crosses a
// time-bucket boundary. Returns whether a seal happened, so the caller
// knows to refresh any engine built over the previous view set. Mutations
// are caller-serialized.
func (st *Store) Add(p *social.Post, post uint32) (sealed bool, err error) {
	if min, _, ok := st.mem.bounds(); ok {
		if st.bucketOf(p.SID) != st.bucketOf(min) {
			if err := st.SealNow(); err != nil {
				return false, err
			}
			sealed = true
		}
	}
	if err := st.mem.Add(p, post); err != nil {
		return sealed, err
	}
	if st.opts.MemtableRows > 0 && st.mem.Len() >= st.opts.MemtableRows {
		if err := st.SealNow(); err != nil {
			return sealed, err
		}
		sealed = true
	}
	return sealed, nil
}

// SealNow seals the memtable into an immutable segment and commits a
// MANIFEST referencing it. No-op on an empty memtable. The segment file
// is written under a tmp name, fsync'd and renamed before the MANIFEST
// mentions it, so a crash at any filesystem step leaves the store opening
// either the old segment set or the new one — never a torn mix.
func (st *Store) SealNow() error {
	if st.mem.Len() == 0 {
		return nil
	}
	rows, texts, keys, posts, err := st.mem.snapshot(st.opts.BlockSize)
	if err != nil {
		return err
	}
	seg, file, err := st.writeSegment(rows, texts, keys, posts)
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.segs = append(st.segs, seg)
	st.segFiles = append(st.segFiles, file)
	st.mu.Unlock()
	if err := st.commitManifest(); err != nil {
		return err
	}
	st.mu.Lock()
	st.mem = NewMemtable(st.opts.GeohashLen)
	st.mu.Unlock()
	st.seals.Add(1)
	return st.gc()
}

// writeSegment builds the byte image, writes it tmp → fsync → rename →
// dirsync, and opens the sealed file (mmap'd, checksummed), serving the
// rows' post ordinals posts. A heap store parses the image where it lies
// and names no file.
func (st *Store) writeSegment(rows []social.Row, texts []string, keys []keyPostings, posts []uint32) (*Segment, string, error) {
	data, err := buildSegment(st.opts.GeohashLen, rows, texts, keys)
	if err != nil {
		return nil, "", err
	}
	if st.dir == "" {
		seg, err := parseSegment(data)
		if err != nil {
			return nil, "", err
		}
		seg.posts = posts
		return seg, "", nil
	}
	seq := st.nextSeq
	st.nextSeq++
	tmp := filepath.Join(st.dir, tmpSegName(seq))
	f, err := fsx.Create(tmp)
	if err != nil {
		return nil, "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := fsx.SyncClose(f); err != nil {
		return nil, "", err
	}
	file := segFileName(seq)
	if err := fsx.Rename(tmp, filepath.Join(st.dir, file)); err != nil {
		return nil, "", err
	}
	if err := fsx.SyncDir(st.dir); err != nil {
		return nil, "", err
	}
	seg, err := openFile(filepath.Join(st.dir, file))
	if err != nil {
		return nil, "", err
	}
	seg.posts = posts
	return seg, file, nil
}

// commitManifest writes the next MANIFEST naming the live segment set and
// flips CURRENT to it — the commit point of every seal and compaction. A
// heap store has nothing to commit.
func (st *Store) commitManifest() error {
	if st.dir == "" {
		return nil
	}
	st.mu.RLock()
	man := manifestData{Version: manifestVersion, NextSeq: st.nextSeq}
	for i, seg := range st.segs {
		man.Segments = append(man.Segments, manifestSegment{
			File:   st.segFiles[i],
			MinSID: int64(seg.MinSID()),
			MaxSID: int64(seg.MaxSID()),
			Rows:   seg.NumRows(),
			Keys:   seg.NumKeys(),
			Size:   int64(seg.SizeBytes()),
		})
	}
	seq := st.manSeq + 1
	st.mu.RUnlock()
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	name := manifestName(seq)
	if err := fsx.WriteFileSync(filepath.Join(st.dir, name), raw); err != nil {
		return err
	}
	if err := fsx.WriteFileSync(filepath.Join(st.dir, currentTmpName), []byte(name+"\n")); err != nil {
		return err
	}
	if err := fsx.Rename(filepath.Join(st.dir, currentTmpName), filepath.Join(st.dir, currentName)); err != nil {
		return err
	}
	if err := fsx.SyncDir(st.dir); err != nil {
		return err
	}
	st.manSeq = seq
	return nil
}

// gc removes everything the current MANIFEST does not reference: replaced
// segment files, superseded manifests, tmp leftovers of crashed seals.
// Runs only after a commit, so nothing live is ever a candidate.
func (st *Store) gc() error {
	if st.dir == "" {
		return nil
	}
	st.mu.RLock()
	keep := make(map[string]bool, len(st.segFiles)+2)
	for _, f := range st.segFiles {
		keep[f] = true
	}
	keep[currentName] = true
	keep[manifestName(st.manSeq)] = true
	st.mu.RUnlock()
	return gcDir(st.dir, keep)
}

// gcDir removes unreferenced store artifacts from dir. Only names in the
// store's vocabulary are candidates; foreign files are left alone.
func gcDir(dir string, keep map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		candidate := strings.HasPrefix(name, tmpSegPrefix) ||
			strings.HasPrefix(name, manifestPrefix) ||
			name == currentTmpName ||
			(strings.HasPrefix(name, segFilePrefix) && strings.HasSuffix(name, segSuffix))
		if !candidate {
			continue
		}
		if err := fsx.RemoveAll(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// GCOrphans removes segment-store artifacts in dir that the current
// MANIFEST does not reference — leftovers of seals or compactions that
// crashed between writing a file and committing. It is deliberately
// conservative: when CURRENT or the manifest cannot be read, nothing is
// removed. A checkpoint calls it, since a seal of an empty memtable commits
// nothing and so collects nothing.
func GCOrphans(dir string) error {
	man, seq, err := readCurrentManifest(dir)
	if err != nil || man == nil {
		return nil
	}
	keep := make(map[string]bool, len(man.Segments)+2)
	for _, ms := range man.Segments {
		keep[ms.File] = true
	}
	keep[currentName] = true
	keep[manifestName(seq)] = true
	return gcDir(dir, keep)
}

// Committed reports whether dir holds a committed store: a CURRENT file.
func Committed(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, currentName))
	return err == nil
}

// sizeClass buckets a segment size into base-4 tiers of 16 KiB — the
// size-tiered compaction policy's notion of "about the same size".
func sizeClass(n int) int {
	c := 0
	for n >>= 14; n > 0; n >>= 2 {
		c++
	}
	return c
}

// Compact runs size-tiered compaction to a fixed point: any run of
// CompactFanIn time-adjacent segments in the same size class merges into
// one segment covering their combined bucket range. Returns how many
// input segments were merged away. Each merge commits its own MANIFEST,
// so a crash loses at most the round in flight; replaced segments stay
// mapped (retired) until Close because readers may still iterate them, but
// the store keeps only their mappings, so their records are freed once
// the last query holding one finishes.
func (st *Store) Compact() (int, error) {
	merged := 0
	for {
		st.mu.RLock()
		run := -1
		fan := st.opts.CompactFanIn
		for i := 0; i+fan <= len(st.segs); i++ {
			c := sizeClass(st.segs[i].SizeBytes())
			ok := true
			for j := i + 1; j < i+fan; j++ {
				if sizeClass(st.segs[j].SizeBytes()) != c {
					ok = false
					break
				}
			}
			if ok {
				run = i
				break
			}
		}
		var olds []*Segment
		if run >= 0 {
			olds = append(olds, st.segs[run:run+fan]...)
		}
		st.mu.RUnlock()
		if run < 0 {
			return merged, nil
		}
		rows, texts, keys, posts, err := mergeSegments(olds, st.opts.BlockSize)
		if err != nil {
			return merged, err
		}
		seg, file, err := st.writeSegment(rows, texts, keys, posts)
		if err != nil {
			return merged, err
		}
		st.mu.Lock()
		for _, old := range olds {
			if m := old.mapping(); m != nil {
				st.retired = append(st.retired, m)
			}
		}
		segs := append([]*Segment{}, st.segs[:run]...)
		segs = append(segs, seg)
		segs = append(segs, st.segs[run+fan:]...)
		files := append([]string{}, st.segFiles[:run]...)
		files = append(files, file)
		files = append(files, st.segFiles[run+fan:]...)
		st.segs, st.segFiles = segs, files
		st.mu.Unlock()
		if err := st.commitManifest(); err != nil {
			return merged, err
		}
		if err := st.gc(); err != nil {
			return merged, err
		}
		st.compactions.Add(1)
		merged += fan
	}
}

// mergeSegments concatenates time-adjacent segments: rows, their texts and
// their post ordinals append in order, so an input's row i is row base+i of
// the output, base the rows of the inputs before it; each key's postings
// lists concatenate in segment order with their ordinals shifted by that
// base — ascending, because adjacent buckets hold disjoint ascending SID
// ranges.
func mergeSegments(segs []*Segment, blockSize int) ([]social.Row, []string, []keyPostings, []uint32, error) {
	nRows := 0
	for _, s := range segs {
		nRows += s.NumRows()
	}
	rows := make([]social.Row, 0, nRows)
	texts := make([]string, 0, nRows)
	posts := make([]uint32, 0, nRows)
	merged := make(map[invindex.Key][]invindex.Posting)
	for _, s := range segs {
		base := social.PostID(len(rows))
		for i := 0; i < s.NumRows(); i++ {
			rows = append(rows, s.RowAt(i))
			texts = append(texts, s.Text(i))
		}
		posts = append(posts, s.posts...)
		for _, k := range s.Keys() {
			ps, err := s.ordinals(k.Geohash, k.Term)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			for _, p := range ps {
				merged[k] = append(merged[k], invindex.Posting{TID: base + p.TID, TF: p.TF})
			}
		}
	}
	enc := make(map[invindex.Key][]byte, len(merged))
	for k, ps := range merged {
		payload, err := invindex.EncodeBlockedPostingsList(ps, blockSize)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		enc[k] = payload
	}
	return rows, texts, sortKeyPostings(enc), posts, nil
}

// BulkLoad seeds an empty store from sealed segments in time order (a
// build image, or what a heap store sealed): their rows, texts and each
// key's postings, split at time-bucket boundaries into one segment per
// occupied bucket of each input, committed under a single MANIFEST. This is
// how a system first writes a segment directory (see CreateStore).
func (st *Store) BulkLoad(imgs ...*Segment) error {
	if !st.Empty() {
		return fmt.Errorf("segment: bulk load into a non-empty store")
	}
	for _, img := range imgs {
		if err := st.split(img); err != nil {
			return err
		}
	}
	if err := st.commitManifest(); err != nil {
		return err
	}
	return st.gc()
}

// split appends img to the sealed set as one segment per occupied time
// bucket.
func (st *Store) split(img *Segment) error {
	if img.GeohashLen() != st.opts.GeohashLen {
		return fmt.Errorf("segment: bulk load of an image keyed at geohash length %d into a store at %d",
			img.GeohashLen(), st.opts.GeohashLen)
	}
	keys := img.Keys()
	postings := make([][]invindex.Posting, len(keys))
	for i, k := range keys {
		ps, err := img.ordinals(k.Geohash, k.Term)
		if err != nil {
			return err
		}
		postings[i] = ps
	}
	// Cut the rows into contiguous bucket runs [start, end), and each key's
	// ordinals at the same boundaries: a run's row i is the image's row
	// start+i.
	recs := img.Records()
	cursor := make([]int, len(keys))
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && st.bucketOf(recs[end].SID) == st.bucketOf(recs[start].SID) {
			end++
		}
		rows := make([]social.Row, end-start)
		texts := make([]string, end-start)
		for i := range rows {
			rows[i] = img.RowAt(start + i)
			texts[i] = img.Text(start + i)
		}
		var perKey []keyPostings
		for i, k := range keys {
			ps, lo := postings[i], cursor[i]
			hi := lo
			for hi < len(ps) && int(ps[hi].TID) < end {
				ps[hi].TID -= social.PostID(start)
				hi++
			}
			cursor[i] = hi
			if hi == lo {
				continue
			}
			payload, err := invindex.EncodeBlockedPostingsList(ps[lo:hi], st.opts.BlockSize)
			if err != nil {
				return err
			}
			perKey = append(perKey, keyPostings{key: k, payload: payload})
		}
		seg, file, err := st.writeSegment(rows, texts, perKey, img.posts[start:end])
		if err != nil {
			return err
		}
		st.mu.Lock()
		st.segs = append(st.segs, seg)
		st.segFiles = append(st.segFiles, file)
		st.mu.Unlock()
		st.seals.Add(1)
		start = end
	}
	return nil
}

// Views returns the store's postings sources in time order: each sealed
// segment bounded by its SID range, then the memtable (if non-empty)
// open-ended — later ingest only appends larger SIDs, so an engine built
// over this view set stays correct until the next seal or compaction.
func (st *Store) Views() []View {
	st.mu.RLock()
	defer st.mu.RUnlock()
	views := make([]View, 0, len(st.segs)+1)
	for _, seg := range st.segs {
		views = append(views, View{Source: seg, MinSID: seg.MinSID(), MaxSID: seg.MaxSID()})
	}
	// The memtable view is always published, even while empty: posts can
	// land in it at any time after the engine snapshot, and an engine
	// without the view would serve them only after the next seal. Its
	// lower bound is the first bucket a live post can occupy — everything
	// sealed is below it — so time-window pruning stays exact.
	if min, _, ok := st.mem.bounds(); ok {
		bucketStart := st.bucketOf(min) * st.opts.BucketWidth.Nanoseconds()
		views = append(views, View{Source: st.mem, MinSID: social.PostID(bucketStart)})
	} else {
		var floor social.PostID
		if len(st.segs) > 0 {
			floor = st.segs[len(st.segs)-1].MaxSID() + 1
		}
		views = append(views, View{Source: st.mem, MinSID: floor})
	}
	return views
}

// LookupRowMeta resolves one SID: a batch of one against the view that
// covers it. Nothing in this module calls it — queries read each posting's
// record by ordinal; it stays only because the end-to-end benchmark
// harness (internal/bench, frozen) compiles against it.
func (st *Store) LookupRowMeta(sid social.PostID) (social.RowMeta, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var src PostingsSource = st.mem
	// Segments are disjoint and sorted by SID range.
	if i := sort.Search(len(st.segs), func(i int) bool { return st.segs[i].MaxSID() >= sid }); i < len(st.segs) {
		src = st.segs[i]
	}
	var out [1]social.RowMeta
	ok := src.ResolveRows([]social.PostID{sid}, out[:]) < 0
	return out[0], ok
}

// Text returns the raw text of post sid, read from the sealed segment or
// the memtable holding its row; false when the store holds no such row.
func (st *Store) Text(sid social.PostID) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// Segments are disjoint and sorted by SID range.
	if i := sort.Search(len(st.segs), func(i int) bool { return st.segs[i].MaxSID() >= sid }); i < len(st.segs) {
		seg := st.segs[i]
		if ord, ok := ordinalOf(seg.recs, sid); ok {
			return seg.Text(ord), true
		}
		return "", false
	}
	return st.mem.text(sid)
}

// Segments returns the live sealed segments in time order. They stay
// readable until Close, even after a compaction replaces them.
func (st *Store) Segments() []*Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return slices.Clone(st.segs)
}

// NumKeys returns the ⟨geohash, term⟩ keys summed over the sealed segments
// and the memtable: a key held by several of them counts once in each.
func (st *Store) NumKeys() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := st.mem.numKeys()
	for _, s := range st.segs {
		n += s.NumKeys()
	}
	return n
}

// Memtable returns the mutable head table.
func (st *Store) Memtable() *Memtable {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.mem
}

// SegmentCount returns the number of live sealed segments.
func (st *Store) SegmentCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs)
}

// Seals and Compactions report lifetime operation counts; MappedBytes the
// total mmap'd size of live and retired segments. Exported as
// tklus_segment_* metrics.
func (st *Store) Seals() int64       { return st.seals.Load() }
func (st *Store) Compactions() int64 { return st.compactions.Load() }

func (st *Store) MappedBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n int64
	for _, s := range st.segs {
		n += int64(s.MappedBytes())
	}
	for _, m := range st.retired {
		n += int64(len(m))
	}
	return n
}

// ColumnBytes returns the resident size of the packed records and post
// ordinals of the live segments and the memtable; a retired segment's are
// not counted, because the store no longer holds them. Exported as
// tklus_segment_column_bytes.
func (st *Store) ColumnBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := int64(st.mem.recordBytes())
	for _, s := range st.segs {
		n += int64(recordsBytes(s.recs))
	}
	return n
}

// Close unmaps every live and retired segment. The caller owns the
// guarantee that no queries are in flight.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, s := range st.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range st.retired {
		if err := unmapFile(m); err != nil && first == nil {
			first = err
		}
	}
	st.segs, st.segFiles, st.retired = nil, nil, nil
	st.mem = NewMemtable(st.opts.GeohashLen)
	return first
}
