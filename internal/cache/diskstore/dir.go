package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// Record file layout: a fixed header followed by the payload.
//
//	magic           8 bytes  "HGPSNAP\x01"
//	format version  uint32   formatVersion
//	stream version  uint32   treedecomp.RNGStreamVersion at write time
//	payload length  uint64
//	payload sha256  32 bytes
//	payload         <length> bytes
//
// The stream version rides in every record so a daemon built against a
// different randomness stream rejects the whole generation: serving
// another stream's trees would silently break the "same key ⇒ same
// distribution" contract the caches are built on.
//
// Format history: v1 decomposition payloads held a bare decomposition;
// v2 (the canonical-fingerprinting release) prepends the writing
// request's orig→canonical vertex permutation. v1 files are skipped and
// counted like any other version mismatch — a pre-canon generation
// degrades to a colder start, never a failed one.
const (
	magic         = "HGPSNAP\x01"
	formatVersion = 2
	headerLen     = len(magic) + 4 + 4 + 8 + sha256.Size

	tempSuffix = ".tmp"
	// SessionSuffix names hgpd's graph-session records.
	SessionSuffix = ".sess"
)

// ErrVersionMismatch tags records written under a different format or
// RNG-stream version — structurally sound, but not this binary's to
// serve.
var ErrVersionMismatch = errors.New("version mismatch")

// WrapWire frames payload with the record header: magic, format
// version, the binary's treedecomp.RNGStreamVersion, payload length,
// and a SHA-256 checksum of the payload. The same framing serves two
// transports — record files on disk and the cluster's internal peer
// wire format — so a body that arrives over the network is validated by
// exactly the code path that guards a file under -state-dir.
func WrapWire(payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, treedecomp.RNGStreamVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// UnwrapWire validates a WrapWire frame — magic, format and RNG-stream
// versions, length, checksum — and returns the payload. Version skew is
// reported as ErrVersionMismatch so callers can count it apart from
// corruption; both outcomes mean "do not trust these bytes".
func UnwrapWire(raw []byte) ([]byte, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic")
	}
	off := len(magic)
	format := binary.LittleEndian.Uint32(raw[off:])
	stream := binary.LittleEndian.Uint32(raw[off+4:])
	plen := binary.LittleEndian.Uint64(raw[off+8:])
	if format != formatVersion || stream != treedecomp.RNGStreamVersion {
		return nil, fmt.Errorf("format %d stream %d, want %d/%d: %w",
			format, stream, formatVersion, treedecomp.RNGStreamVersion, ErrVersionMismatch)
	}
	var sum [sha256.Size]byte
	copy(sum[:], raw[off+16:])
	payload := raw[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), plen)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// Dir is a directory of framed records: one file per record, named by
// its hex id plus the directory's suffix and holding WrapWire(payload).
// Every file-level decision of the state dir lives here once — naming,
// the atomic write, the skip verdict for damaged files, the newest-first
// scan and the staged write-behind — and the payload is opaque: the
// decomposition store, the hint queue and the server's sessions each
// own only their encoding.
type Dir struct {
	path, suffix string
	reg          *telemetry.Registry

	mu     sync.Mutex
	staged map[string]func() []byte // id → payload encoder, written by Flush
	dead   map[string]bool          // unstaged ids whose files Flush removes
}

// OpenDir prepares path (creating it if needed) as a record directory
// whose files end in suffix. reg (nil means telemetry.Default) counts
// the records a read skips.
func OpenDir(path, suffix string, reg *telemetry.Registry) (*Dir, error) {
	if reg == nil {
		reg = telemetry.Default
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return &Dir{path: path, suffix: suffix, reg: reg,
		staged: map[string]func() []byte{}, dead: map[string]bool{}}, nil
}

// file maps an id to its record file. Ids are hex (cache keys, hint
// and session ids); everything else is dropped so no id can escape the
// directory.
func (d *Dir) file(id string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
			return r
		}
		return -1
	}, id)
	return filepath.Join(d.path, clean+d.suffix)
}

// Put writes one record durably: frame, write a temp file, fsync,
// rename over the final name, fsync the directory. A crash at any point
// leaves the old record, no record, or a stray temp file (removed by the
// next scan) — never a half-written record under the final name — and
// once Put returns the record survives power loss. A failed Put removes
// its temp file.
func (d *Dir) Put(id string, payload []byte) error {
	final := d.file(id)
	if err := commitFile(d.path, final, WrapWire(payload)); err != nil {
		os.Remove(final + tempSuffix)
		return fmt.Errorf("diskstore: write %s: %w", filepath.Base(final), err)
	}
	return nil
}

// commitFile is Put's write sequence. faultinject.DiskWrite fires
// before any byte reaches the filesystem, faultinject.DiskSync before
// the fsync — the window where a crash leaves only the temp file.
func commitFile(dir, final string, buf []byte) error {
	if err := faultinject.Fire(nil, faultinject.DiskWrite); err != nil {
		return err
	}
	tmp := final + tempSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Fire(nil, faultinject.DiskSync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// The rename is only crash-durable once the directory entry itself is
	// on disk.
	return syncDir(dir)
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Delete removes the records of ids, then fsyncs the directory once so
// the removals survive power loss. Missing records are not an error: a
// delete raced with another is a no-op.
func (d *Dir) Delete(ids ...string) {
	removed := false
	for _, id := range ids {
		removed = os.Remove(d.file(id)) == nil || removed
	}
	if removed {
		// No caller can do better than retry at its next removal, so a
		// failed fsync is not reported.
		_ = syncDir(d.path)
	}
}

// Read reads the record id, checks its frame and hands the payload to
// decode. A record that exists but is unreadable, fails the frame check
// or is rejected by decode is counted — version skew apart from
// corruption, under the same counters for every record kind — and its
// error returned; it is not deleted (a single read leaves cleanup to the
// next scan). A missing record returns an os.ErrNotExist error,
// uncounted.
func (d *Dir) Read(id string, decode func(payload []byte) error) error {
	raw, err := os.ReadFile(d.file(id))
	if errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil {
		var payload []byte
		if payload, err = UnwrapWire(raw); err == nil {
			err = decode(payload)
		}
	}
	if errors.Is(err, ErrVersionMismatch) {
		d.reg.Counter("snapshot_version_mismatch_total").Inc()
	} else if err != nil {
		d.reg.Counter("snapshot_corrupt_total").Inc()
	}
	return err
}

// Each hands every valid record to fn, newest first (mtime, then name),
// stopping after limit records (≤ 0 means all). A record that fails the
// frame check, or whose payload fn rejects with an error, is skipped,
// counted and deleted: a damaged directory degrades to a colder start,
// never a failed one, and never re-skips the same file. Stray temp files
// from interrupted writes are removed.
func (d *Dir) Each(limit int, fn func(id string, payload []byte) error) error {
	files, err := d.list()
	if err != nil {
		return err
	}
	var bad []string
	loaded := 0
	for _, f := range files {
		if limit > 0 && loaded >= limit {
			break
		}
		err := d.Read(f.id, func(payload []byte) error { return fn(f.id, payload) })
		if err == nil {
			loaded++
		} else if !errors.Is(err, os.ErrNotExist) {
			bad = append(bad, f.id)
		}
	}
	d.Delete(bad...)
	return nil
}

// IDs lists the ids of every record on disk, newest first, without
// reading payloads — an id is a content address or a handle, so
// listing it never vouches for the bytes behind it.
func (d *Dir) IDs() []string {
	files, _ := d.list() // an unlistable directory lists no records
	ids := make([]string, len(files))
	for i, f := range files {
		ids[i] = f.id
	}
	return ids
}

// Has reports whether a record for id exists, by stat alone.
func (d *Dir) Has(id string) bool {
	_, err := os.Stat(d.file(id))
	return err == nil
}

type recordFile struct {
	id    string
	mtime time.Time
	size  int64
}

// list returns the directory's records newest first (mtime, then name)
// and deletes stray temp files as it goes.
func (d *Dir) list() ([]recordFile, error) {
	dirents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var files []recordFile
	for _, de := range dirents {
		name := de.Name()
		if strings.HasSuffix(name, tempSuffix) {
			os.Remove(filepath.Join(d.path, name))
			continue
		}
		if !strings.HasSuffix(name, d.suffix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, recordFile{id: strings.TrimSuffix(name, d.suffix), mtime: info.ModTime(), size: info.Size()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.After(files[j].mtime)
		}
		return files[i].id < files[j].id
	})
	return files, nil
}

// Stage schedules a write of id for the next Flush, replacing any
// staged write of the same id. It never touches the filesystem, so the
// serving path can stage freely; encode runs at flush time.
func (d *Dir) Stage(id string, encode func() []byte) {
	d.mu.Lock()
	d.staged[id] = encode
	delete(d.dead, id)
	d.mu.Unlock()
}

// Unstage drops any staged write of id and schedules its record for
// removal at the next Flush.
func (d *Dir) Unstage(id string) {
	d.mu.Lock()
	delete(d.staged, id)
	d.dead[id] = true
	d.mu.Unlock()
}

// Staged returns the number of writes awaiting the next Flush.
func (d *Dir) Staged() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.staged)
}

// Flush writes every staged record in id order, then removes the
// unstaged ones with one directory fsync. It reports how many writes
// succeeded and failed, and the first error. A failed write is re-staged
// for the next Flush — a transient fault (ENOSPC, an injected disk
// fault) delays durability instead of dropping the record — unless a
// newer Stage or Unstage of the id superseded it meanwhile.
func (d *Dir) Flush() (saved, failed int, err error) {
	d.mu.Lock()
	batch, dead := d.staged, d.dead
	d.staged, d.dead = map[string]func() []byte{}, map[string]bool{}
	d.mu.Unlock()

	ids := make([]string, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		perr := d.Put(id, batch[id]())
		if perr == nil {
			saved++
			continue
		}
		failed++
		if err == nil {
			err = perr
		}
		d.mu.Lock()
		if _, superseded := d.staged[id]; !superseded && !d.dead[id] {
			d.staged[id] = batch[id]
		}
		d.mu.Unlock()
	}
	gone := make([]string, 0, len(dead))
	for id := range dead {
		gone = append(gone, id)
	}
	d.Delete(gone...)
	return saved, failed, err
}
