package invindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/dfs"
)

// The forward index persists as a compact binary stream: a magic header,
// the geohash length, the entry count, then per entry the key (length-
// prefixed geohash and term) and the postings-list location (file name,
// offset, length, count, and a flags uvarint whose bit 0 marks a blocked
// payload). The postings themselves live in the DFS image. The magic ends
// in the format's version digit: another version fails LoadIndex with
// ErrFormatVersion, and an entry with the blocked bit clear is corruption —
// the blocked layout is the only postings codec.

var forwardMagic = []byte("TKFWD2")

const refFlagBlocked = 1 << 0

// ErrFormatVersion reports a forward-index stream of another format
// version: well-formed, but not readable by this build.
var ErrFormatVersion = errors.New("invindex: unsupported forward index format version")

// SaveForward writes the in-memory forward index to w.
func (idx *Index) SaveForward(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(forwardMagic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(idx.geohashLen))
	writeUvarint(bw, uint64(len(idx.forward)))
	for k, ref := range idx.forward {
		writeString(bw, k.Geohash)
		writeString(bw, k.Term)
		writeString(bw, ref.file)
		writeUvarint(bw, uint64(ref.offset))
		writeUvarint(bw, uint64(ref.length))
		writeUvarint(bw, uint64(ref.count))
		writeUvarint(bw, refFlagBlocked)
	}
	return bw.Flush()
}

// LoadIndex reconstructs an Index from a forward-index stream and the DFS
// holding the postings files.
func LoadIndex(fsys *dfs.FS, r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(forwardMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("invindex: reading magic: %w", err)
	}
	if !bytes.Equal(magic, forwardMagic) {
		if v := len(magic) - 1; bytes.Equal(magic[:v], forwardMagic[:v]) {
			return nil, fmt.Errorf("%w: image is %q, this build reads %q", ErrFormatVersion, magic, forwardMagic)
		}
		return nil, fmt.Errorf("invindex: bad forward index magic %q", magic)
	}
	geohashLen, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if geohashLen < 1 || geohashLen > 12 {
		return nil, fmt.Errorf("invindex: implausible geohash length %d", geohashLen)
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		fs:         fsys,
		geohashLen: int(geohashLen),
		forward:    make(map[Key]entryRef, count),
	}
	for i := uint64(0); i < count; i++ {
		var k Key
		var ref entryRef
		if k.Geohash, err = readString(br); err != nil {
			return nil, err
		}
		if k.Term, err = readString(br); err != nil {
			return nil, err
		}
		if ref.file, err = readString(br); err != nil {
			return nil, err
		}
		vals := [3]uint64{}
		for j := range vals {
			if vals[j], err = readUvarint(br); err != nil {
				return nil, err
			}
		}
		ref.offset, ref.length, ref.count = int64(vals[0]), int64(vals[1]), int(vals[2])
		flags, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if flags&refFlagBlocked == 0 {
			return nil, fmt.Errorf("invindex: entry %q is not in the blocked postings layout", k.String())
		}
		if !fsys.Exists(ref.file) {
			return nil, fmt.Errorf("invindex: postings file %q missing from DFS", ref.file)
		}
		idx.forward[k] = ref
	}
	return idx, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("invindex: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
