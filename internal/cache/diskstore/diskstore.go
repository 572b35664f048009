package diskstore

import (
	"sync"
	"time"

	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

const entrySuffix = ".snap"

// Store is the on-disk snapshot of a decomposition cache: a record
// directory (Dir) with one ".snap" record per entry, named by the
// entry's canonical SHA-256 cache key. On top of the directory it keeps
// only what is specific to decompositions: the entry encoding, a bound
// on the generation (pruning), size accounting and a background
// flusher that batches staged writes off the serving path.
type Store struct {
	dir *Dir
	reg *telemetry.Registry

	// maxEntries bounds the on-disk generation; older entries beyond it
	// are pruned at flush time. ≤ 0 means unbounded.
	maxEntries int

	mu        sync.Mutex
	lastFlush time.Time
	bytes     int64
	entries   int

	flushCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
}

// Open prepares dir as a snapshot store (creating it if needed).
// maxEntries bounds how many entries the store keeps on disk; reg
// (nil means telemetry.Default) receives the store's counters and
// gauges. No background work starts until StartFlusher.
func Open(dir string, maxEntries int, reg *telemetry.Registry) (*Store, error) {
	if reg == nil {
		reg = telemetry.Default
	}
	d, err := OpenDir(dir, entrySuffix, reg)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: d, reg: reg, maxEntries: maxEntries, flushCh: make(chan struct{}, 1)}
	s.refreshAccounting()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir.path }

// Save writes one entry durably (Dir.Put). perm is the writing
// request's orig→canonical vertex permutation; pass nil for
// label-sensitive (canon-off) entries.
func (s *Store) Save(key string, d *treedecomp.Decomposition, perm []int) error {
	err := s.dir.Put(key, EncodeDecompEntry(d, perm))
	if err != nil {
		s.reg.Counter("snapshot_save_errors_total").Inc()
	} else {
		s.reg.Counter("snapshot_saved_total").Inc()
	}
	return err
}

// Load reads and validates one entry, returning the decomposition and
// the stored orig→canonical permutation (nil for canon-off entries).
// The boolean reports whether a valid entry was found; an invalid one
// (corrupt, truncated, version mismatch) returns false with the skip
// counters ticked, so callers treat it as a cache miss.
func (s *Store) Load(key string) (d *treedecomp.Decomposition, perm []int, ok bool) {
	err := s.dir.Read(key, func(payload []byte) (err error) {
		d, perm, err = DecodeDecompEntry(payload)
		return err
	})
	return d, perm, err == nil
}

// LoadAll streams every valid entry to fn, newest first, stopping after
// limit entries (≤ 0 means all). Invalid entries are skipped, counted
// and removed (Dir.Each).
func (s *Store) LoadAll(limit int, fn func(key string, d *treedecomp.Decomposition, perm []int)) error {
	err := s.dir.Each(limit, func(key string, payload []byte) error {
		d, perm, err := DecodeDecompEntry(payload)
		if err != nil {
			return err
		}
		fn(key, d, perm)
		s.reg.Counter("snapshot_loaded_total").Inc()
		return nil
	})
	s.refreshAccounting()
	return err
}

// Keys lists the cache keys of every entry on disk, newest first,
// without reading payloads — the cheap digest listing the anti-entropy
// sweep exchanges over GET /v1/peer/keys. A listed key whose payload
// later fails validation is simply not served.
func (s *Store) Keys() []string { return s.dir.IDs() }

// Has reports whether an entry for key exists on disk, by stat alone.
// Repair uses it as the cheap "local miss?" test; serving still goes
// through Load's full check.
func (s *Store) Has(key string) bool { return s.dir.Has(key) }

// refreshAccounting recounts the on-disk generation into the
// snapshot_entries / snapshot_bytes gauges.
func (s *Store) refreshAccounting() {
	files, err := s.dir.list()
	if err != nil {
		return
	}
	var bytes int64
	for _, f := range files {
		bytes += f.size
	}
	s.mu.Lock()
	s.entries, s.bytes = len(files), bytes
	s.mu.Unlock()
	s.reg.Gauge("snapshot_entries").Set(int64(len(files)))
	s.reg.Gauge("snapshot_bytes").Set(bytes)
}

// prune deletes the oldest entries beyond maxEntries.
func (s *Store) prune() {
	if s.maxEntries <= 0 {
		return
	}
	files, err := s.dir.list()
	if err != nil {
		return
	}
	var old []string
	for _, f := range files[min(len(files), s.maxEntries):] {
		old = append(old, f.id)
	}
	s.dir.Delete(old...)
}

// Enqueue stages an entry for the background flusher. It never blocks
// the serving path: the entry is encoded and written at the next flush
// tick (or Flush call). perm follows the Save contract.
func (s *Store) Enqueue(key string, d *treedecomp.Decomposition, perm []int) {
	s.dir.Stage(key, func() []byte { return EncodeDecompEntry(d, perm) })
	select {
	case s.flushCh <- struct{}{}:
	default:
	}
}

// Flush writes every staged entry now (Dir.Flush: a failed write stays
// staged for the next flush) and prunes the generation to maxEntries.
// It returns the first write error.
func (s *Store) Flush() error {
	saved, failed, err := s.dir.Flush()
	s.reg.Counter("snapshot_saved_total").Add(int64(saved))
	s.reg.Counter("snapshot_save_errors_total").Add(int64(failed))
	if saved+failed > 0 {
		s.prune()
	}
	s.refreshAccounting()
	s.mu.Lock()
	s.lastFlush = time.Now()
	s.mu.Unlock()
	return err
}

// StartFlusher runs a background goroutine that batches Enqueue'd
// entries and writes them at most once per interval. Call Close to stop
// it (with a final flush).
func (s *Store) StartFlusher(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	s.mu.Lock()
	if s.stopCh != nil {
		s.mu.Unlock()
		return // already running
	}
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	stop, done := s.stopCh, s.doneCh
	s.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-s.flushCh:
				// Coalesce: wait out the rest of the interval so a burst
				// of inserts becomes one write batch, not N.
				select {
				case <-time.After(interval):
				case <-stop:
					return
				}
				_ = s.Flush()
			case <-ticker.C:
				_ = s.Flush()
			}
		}
	}()
}

// Close stops the flusher (if running) and performs a final synchronous
// flush so no staged entry is lost on a graceful shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	stop, done := s.stopCh, s.doneCh
	s.stopCh, s.doneCh = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return s.Flush()
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Entries   int       `json:"entries"`
	Bytes     int64     `json:"bytes"`
	Pending   int       `json:"pending"`
	LastFlush time.Time `json:"last_flush"`
}

// Stats reports the store's accounting. Callers exposing it as metrics
// typically also derive an age gauge from LastFlush.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: s.entries, Bytes: s.bytes, Pending: s.dir.Staged(), LastFlush: s.lastFlush}
}
