// Package ckptio is the crash-consistent on-disk checkpoint format: a framed,
// checksummed container around the engine's GVT-consistent Checkpoint plus the
// trace committed up to the cut, with a keep-N generation lineage and a
// fallback reader that restores from the newest *verifiable* generation.
//
// The frame is
//
//	magic "GVCP" | version u32 | payload length u64 | sha256(payload) | payload
//
// (header integers big-endian). The payload is the File in the engine's wire
// value encoding (pdes.WireEncoder — the codec of socket frames and cut
// blobs):
//
//	Shards varint | Partition string | has-checkpoint u8 |
//	  Format varint | GVT | Round uvarint | Workers varint | NumLPs varint |
//	  Modes count + u8 each | Blobs count + opaque bytes each |
//	Trace count + (LP | TS | Item as a tagged value) each
//
// Every reader verifies the whole frame before decoding a byte of the
// payload, so a torn write, a truncated copy, or a flipped bit is rejected
// with an *Error that positions the corruption (file, byte offset, what was
// expected) instead of surfacing deep inside restore — and, through Recover,
// the restart falls back to the previous generation instead of dying. The
// payload decoder is bounded on its own account: every count is checked
// against the bytes left before anything is allocated.
//
// Writes are atomic and durable: encode to a temp file, fsync, rename over
// the target, fsync the parent directory. A crash at any step leaves either
// the previous good generation set or the complete new one, never a torn
// file. Generation rotation (path -> path.1 -> path.2 ...) happens before the
// rename; each generation is a self-contained verified frame, so a crash
// mid-rotation still leaves only verifiable (or detectably corrupt) files.
package ckptio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"govhdl/internal/pdes"
	"govhdl/internal/trace"
)

// Magic identifies a ckptio frame.
const Magic = "GVCP"

// Version is the current frame version. Readers reject other versions —
// version 1 carried an encoding/gob payload — with a positioned error rather
// than guessing at the payload layout: re-run to write a current image.
const Version = 2

// headerLen is the fixed frame prefix: magic, version, payload length,
// payload sha256.
const headerLen = 4 + 4 + 8 + sha256.Size

// maxPayload bounds the payload length a header may claim. The reader still
// allocates only what the stream delivers (readPayload): a lying length over
// a short body costs what was read, not what was claimed.
const maxPayload = 1 << 32

// File is the restart image a generation holds: the engine checkpoint, the
// trace committed up to the cut, and the sharding the run was started with
// (so a restore rebuilds an identical shard system without the caller having
// to repeat — or risk contradicting — the original flags).
type File struct {
	Ckpt      *pdes.Checkpoint
	Trace     []trace.Entry
	Shards    int
	Partition string
}

// Error is a positioned verification failure: which file, which byte offset
// the check failed at, and what was wrong there.
type Error struct {
	Path   string
	Offset int64  // byte offset of the failed check
	Reason string // what was expected / found
	Err    error  // underlying cause, when one exists
}

func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("ckptio: %s: byte %d: %s: %v", e.Path, e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("ckptio: %s: byte %d: %s", e.Path, e.Offset, e.Reason)
}

func (e *Error) Unwrap() error { return e.Err }

func errAt(path string, off int64, reason string, err error) *Error {
	return &Error{Path: path, Offset: off, Reason: reason, Err: err}
}

// Encode writes the framed file to w. It fails when a trace item's type has
// no wire tag (pdes.RegisterWireValue).
func Encode(w io.Writer, f *File) error {
	var e pdes.WireEncoder
	e.B = make([]byte, headerLen) // the header is filled in once the payload is known
	e.Varint(int64(f.Shards))
	e.String(f.Partition)
	e.Bool(f.Ckpt != nil)
	if ck := f.Ckpt; ck != nil {
		e.Varint(int64(ck.Format))
		e.VT(ck.GVT)
		e.Uvarint(ck.Round)
		e.Varint(int64(ck.Workers))
		e.Varint(int64(ck.NumLPs))
		e.Count(len(ck.Modes), ck.Modes == nil)
		for _, md := range ck.Modes {
			e.Byte(byte(md))
		}
		e.Count(len(ck.Blobs), ck.Blobs == nil)
		for _, b := range ck.Blobs {
			e.Bytes(b)
		}
	}
	e.Count(len(f.Trace), f.Trace == nil)
	for i := range f.Trace {
		en := &f.Trace[i]
		e.LP(en.LP)
		e.VT(en.TS)
		e.Value(en.Item)
		if err := e.Err(); err != nil {
			return fmt.Errorf("ckptio: encode trace entry %d (LP %d): %w", i, en.LP, err)
		}
	}
	payload := e.B[headerLen:]
	hdr := e.B[:headerLen]
	copy(hdr[0:4], Magic)
	binary.BigEndian.PutUint32(hdr[4:8], Version)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])
	_, err := w.Write(e.B)
	return err
}

// readPayload reads the plen payload bytes a header claims, allocating as the
// bytes arrive rather than up front.
func readPayload(r io.Reader, plen uint64) ([]byte, error) {
	var buf bytes.Buffer
	n, err := buf.ReadFrom(io.LimitReader(r, int64(plen)))
	if err == nil && uint64(n) < plen {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// Decode reads and verifies one framed file from r. path is used only for
// error positioning.
func Decode(r io.Reader, path string) (*File, error) {
	var hdr [headerLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, errAt(path, int64(n), fmt.Sprintf("truncated header (%d of %d bytes)", n, headerLen), err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, errAt(path, 0, fmt.Sprintf("bad magic %q, want %q", hdr[0:4], Magic), nil)
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != Version {
		return nil, errAt(path, 4, fmt.Sprintf("frame version %d, want %d (written by another build: re-run with -checkpoint-file to write a current image)", v, Version), nil)
	}
	plen := binary.BigEndian.Uint64(hdr[8:16])
	if plen == 0 || plen > maxPayload {
		return nil, errAt(path, 8, fmt.Sprintf("payload length %d out of range (1..%d)", plen, maxPayload), nil)
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, errAt(path, int64(headerLen+len(payload)), fmt.Sprintf("torn payload (%d of %d bytes)", len(payload), plen), err)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], hdr[16:]) {
		return nil, errAt(path, 16, fmt.Sprintf("payload sha256 %x does not match header %x", sum[:8], hdr[16:24]), nil)
	}
	var d pdes.WireDecoder
	d.Reset(payload)
	f := decodeFile(&d)
	if err := d.Err(); err != nil {
		return nil, errAt(path, int64(headerLen+len(payload)-d.Len()), "payload decode", err)
	}
	if d.Len() != 0 {
		return nil, errAt(path, int64(headerLen+len(payload)-d.Len()), fmt.Sprintf("%d payload bytes after the last trace entry", d.Len()), nil)
	}
	if f.Ckpt == nil {
		return nil, errAt(path, headerLen, "frame verified but holds no checkpoint", nil)
	}
	return f, nil
}

// decodeFile reads Encode's payload layout; the caller checks d.Err.
func decodeFile(d *pdes.WireDecoder) *File {
	f := &File{Shards: d.Int(), Partition: d.String()}
	if d.Bool() {
		ck := &pdes.Checkpoint{Format: d.Int(), GVT: d.VT(), Round: d.Uvarint(), Workers: d.Int(), NumLPs: d.Int()}
		if n, ok := d.Count(1); ok {
			ck.Modes = make([]pdes.Mode, n)
			for i := range ck.Modes {
				ck.Modes[i] = pdes.Mode(d.Byte())
			}
		}
		if n, ok := d.Count(1); ok {
			ck.Blobs = make([][]byte, n)
			for i := range ck.Blobs {
				ck.Blobs[i] = d.Bytes()
			}
		}
		f.Ckpt = ck
	}
	const entryMin = 1 + 2 + 1 // LP, TS, a one-byte item
	if n, ok := d.Count(entryMin); ok {
		f.Trace = make([]trace.Entry, n)
		for i := range f.Trace {
			f.Trace[i] = trace.Entry{LP: d.LP(), TS: d.VT(), Item: d.Value()}
		}
	}
	return f
}

// Read loads and verifies the single generation at path.
func Read(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return Decode(fd, path)
}

// GenPath names generation n of a lineage rooted at path: the newest
// generation is path itself, older ones are path.1, path.2, ...
func GenPath(path string, n int) string {
	if n == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, n)
}

// Write stores f atomically as the newest generation of the lineage rooted
// at path, keeping at most keep generations (keep <= 1 keeps only path
// itself). Rotation happens before the rename, so the previous newest
// generation survives as path.1 until it ages out.
func Write(path string, keep int, f *File) error {
	if keep < 1 {
		keep = 1
	}
	tmp := path + ".tmp"
	fd, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Encode(fd, f); err != nil {
		fd.Close()
		os.Remove(tmp)
		return err
	}
	if err := fd.Sync(); err != nil {
		fd.Close()
		os.Remove(tmp)
		return err
	}
	if err := fd.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// Rotate path -> path.1 -> ... -> path.(keep-1); the one past the keep
	// bound is dropped. Oldest first so every step is a simple rename.
	os.Remove(GenPath(path, keep-1))
	for n := keep - 2; n >= 0; n-- {
		src := GenPath(path, n)
		if _, err := os.Stat(src); err == nil {
			if err := os.Rename(src, GenPath(path, n+1)); err != nil {
				os.Remove(tmp)
				return err
			}
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Recover loads the newest verifiable generation of the lineage rooted at
// path: it tries path, then path.1, path.2, ... and returns the first
// generation that verifies, its path, and the verification errors of every
// newer generation it had to skip. When no generation verifies, the error
// joins every failure so the operator sees the whole lineage's diagnosis.
func Recover(path string) (f *File, gen string, skipped []error, err error) {
	var failures []error
	for n := 0; ; n++ {
		p := GenPath(path, n)
		f, rerr := Read(p)
		if rerr == nil {
			return f, p, failures, nil
		}
		if os.IsNotExist(rerr) {
			if n == 0 {
				return nil, "", nil, rerr
			}
			failures = append(failures, rerr)
			return nil, "", nil, fmt.Errorf("ckptio: no verifiable generation under %s: %w", path, errors.Join(failures...))
		}
		failures = append(failures, rerr)
	}
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that refuse to sync directories (some network mounts) are
// tolerated: the rename is still atomic, just not yet durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
