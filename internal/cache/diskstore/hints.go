package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"hierpart/internal/telemetry"
)

// Hinted handoff: when the cluster cannot deliver a replica-ward push
// (the target is dead, draining, or failing), the entry is staged here
// as a Hint and replayed once health gossip reports the target
// routable again. Persisted hints are records in a Dir, exactly like
// snapshot entries — one code path for the frame, the atomic commit and
// the skip verdict for damaged files — so a hint that survives a crash
// is exactly as trustworthy as a snapshot entry that did.
//
// The queue is bounded (a long-dead peer must not grow the disk
// without limit): staging beyond capacity drops the NEW hint, counted
// by hints_dropped_total — the oldest staged hints are closest to
// replay, so they are the wrong ones to sacrifice. Entries are
// content-addressed and immutable, so replaying a hint late, twice, or
// after anti-entropy already repaired the key is harmless; a hint
// whose replay keeps failing deterministically (e.g. version skew
// after an upgrade) is dropped after hintMaxAttempts so the queue
// cannot wedge on it — anti-entropy remains the backstop.

const (
	hintSuffix = ".hint"
	// hintMaxAttempts bounds replays of one hint: transient failures
	// retry on later drain ticks, but a deterministic rejection must
	// not replay forever.
	hintMaxAttempts = 8
)

// Hint is one deferred replica-ward push: the target peer, the entry
// kind ("decomp" or "result"), the cache key, and the entry-layer
// payload (unframed; the drainer wraps it for the wire at replay).
type Hint struct {
	Peer    string
	Kind    string
	Key     string
	Payload []byte
}

// id derives the hint's stable identity: staging the same (peer, kind,
// key) twice replaces the payload instead of queueing a duplicate, and
// the id doubles as the hint's record id in its Dir.
func (h Hint) id() string {
	sum := sha256.Sum256([]byte(h.Peer + "\x00" + h.Kind + "\x00" + h.Key))
	return hex.EncodeToString(sum[:])
}

// encodeHint serializes a hint: uvarint-length-prefixed peer, kind,
// and key, then the payload as the remainder. decodeHint accepts only
// minimal length prefixes, so an accepted hint has one encoding.
func encodeHint(h Hint) []byte {
	var buf []byte
	for _, s := range []string{h.Peer, h.Kind, h.Key} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return append(buf, h.Payload...)
}

func decodeHint(payload []byte) (Hint, error) {
	var h Hint
	for _, dst := range []*string{&h.Peer, &h.Kind, &h.Key} {
		n, sz := binary.Uvarint(payload)
		if sz <= 0 || uint64(len(payload)-sz) < n {
			return Hint{}, fmt.Errorf("hint: truncated field")
		}
		if sz != len(binary.AppendUvarint(nil, n)) {
			return Hint{}, fmt.Errorf("hint: non-minimal length prefix")
		}
		*dst = string(payload[sz : sz+int(n)])
		payload = payload[sz+int(n):]
	}
	if h.Peer == "" || h.Kind == "" || h.Key == "" {
		return Hint{}, fmt.Errorf("hint: empty field")
	}
	h.Payload = payload
	return h, nil
}

type hintState struct {
	h        Hint
	attempts int
}

// HintQueue is the bounded hinted-handoff queue. It keeps only the
// in-memory queue; with a dir its records live in a Dir (".hint"
// files): FlushPending makes staged hints durable through the Dir's
// staged writes, and reopening scans them back, so a restart resumes
// the handoff it owed. Without a dir hints die with the process — the
// cluster still self-heals via anti-entropy.
type HintQueue struct {
	dir *Dir // nil = memory-only
	max int
	reg *telemetry.Registry

	mu    sync.Mutex
	hints map[string]*hintState // by Hint.id()
}

// OpenHintQueue prepares a hint queue persisted under dir (empty for
// memory-only), bounded to max hints, reporting into reg (nil means
// telemetry.Default). Existing hints under dir are loaded; damaged
// files are skipped, counted and removed like any damaged record, and
// hints beyond max are dropped.
func OpenHintQueue(dir string, max int, reg *telemetry.Registry) (*HintQueue, error) {
	if reg == nil {
		reg = telemetry.Default
	}
	if max < 1 {
		max = 1
	}
	q := &HintQueue{max: max, reg: reg, hints: map[string]*hintState{}}
	// Pre-register the family at zero so scrapers never see a series
	// pop into existence mid-flight.
	reg.Counter("hints_staged_total")
	reg.Counter("hints_replayed_total")
	reg.Counter("hints_dropped_total")
	reg.Gauge("hints_queued")
	if dir == "" {
		return q, nil
	}
	d, err := OpenDir(dir, hintSuffix, reg)
	if err != nil {
		return nil, err
	}
	q.dir = d
	err = d.Each(0, func(id string, payload []byte) error {
		h, err := decodeHint(payload)
		if err != nil {
			return err
		}
		if len(q.hints) >= q.max {
			reg.Counter("hints_dropped_total").Inc()
			d.Delete(id)
			return nil
		}
		q.hints[h.id()] = &hintState{h: h}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reg.Gauge("hints_queued").Set(int64(len(q.hints)))
	return q, nil
}

// Stage queues h for later replay, replacing any staged hint for the
// same (peer, kind, key). It reports false when the queue is full and
// the hint was dropped. Staging is memory-only and never blocks on the
// filesystem; durability arrives at the next FlushPending, mirroring
// how snapshot entries are enqueued on the serving path and written by
// the flusher.
func (q *HintQueue) Stage(h Hint) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := h.id()
	if _, ok := q.hints[id]; !ok && len(q.hints) >= q.max {
		q.reg.Counter("hints_dropped_total").Inc()
		return false
	}
	q.hints[id] = &hintState{h: h}
	if q.dir != nil {
		q.dir.Stage(id, func() []byte { return encodeHint(h) })
	}
	q.reg.Counter("hints_staged_total").Inc()
	q.reg.Gauge("hints_queued").Set(int64(len(q.hints)))
	return true
}

// Peers returns the distinct target peers with staged hints, sorted.
func (q *HintQueue) Peers() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	seen := map[string]bool{}
	var peers []string
	for _, st := range q.hints {
		if !seen[st.h.Peer] {
			seen[st.h.Peer] = true
			peers = append(peers, st.h.Peer)
		}
	}
	sort.Strings(peers)
	return peers
}

// TakeFor returns up to max staged hints targeting peer, in stable
// (id) order. The hints stay queued — the drainer calls Resolve or
// Fail per hint after attempting its replay.
func (q *HintQueue) TakeFor(peer string, max int) []Hint {
	q.mu.Lock()
	defer q.mu.Unlock()
	var ids []string
	for id, st := range q.hints {
		if st.h.Peer == peer {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if len(ids) > max {
		ids = ids[:max]
	}
	out := make([]Hint, len(ids))
	for i, id := range ids {
		out[i] = q.hints[id].h
	}
	return out
}

// Resolve removes h after a successful replay; its file (if any) is
// deleted at the next FlushPending.
func (q *HintQueue) Resolve(h Hint) {
	q.remove(h.id(), "hints_replayed_total")
}

// Fail records a failed replay attempt. The hint stays queued for the
// next drain tick until hintMaxAttempts, then is dropped (counted) so
// a deterministic rejection cannot wedge the queue.
func (q *HintQueue) Fail(h Hint) {
	q.mu.Lock()
	st, ok := q.hints[h.id()]
	if !ok {
		q.mu.Unlock()
		return
	}
	st.attempts++
	exhausted := st.attempts >= hintMaxAttempts
	q.mu.Unlock()
	if exhausted {
		q.remove(h.id(), "hints_dropped_total")
	}
}

func (q *HintQueue) remove(id, counter string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.hints[id]; !ok {
		return
	}
	delete(q.hints, id)
	if q.dir != nil {
		q.dir.Unstage(id)
	}
	q.reg.Counter(counter).Inc()
	q.reg.Gauge("hints_queued").Set(int64(len(q.hints)))
}

// DropPeer discards every hint targeting peer — called when membership
// reload removes the peer from the ring, at which point its hints can
// never deliver.
func (q *HintQueue) DropPeer(peer string) {
	q.mu.Lock()
	var ids []string
	for id, st := range q.hints {
		if st.h.Peer == peer {
			ids = append(ids, id)
		}
	}
	q.mu.Unlock()
	for _, id := range ids {
		q.remove(id, "hints_dropped_total")
	}
}

// Len returns the number of staged hints.
func (q *HintQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.hints)
}

// FlushPending makes the queue's memory state durable through the
// Dir's staged writes: every hint staged since the last flush is
// written atomically, and the files of resolved or dropped hints are
// removed. A failed write stays staged for the next flush. Memory-only
// queues return nil immediately.
func (q *HintQueue) FlushPending() error {
	if q.dir == nil {
		return nil
	}
	_, _, err := q.dir.Flush()
	return err
}
