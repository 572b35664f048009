package diskstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hierpart/internal/faultinject"
	"hierpart/internal/telemetry"
)

func testHint(peer, key string, payload []byte) Hint {
	return Hint{Peer: peer, Kind: "decomp", Key: key, Payload: payload}
}

// A dir-backed queue must round-trip its hints through a flush and a
// reopen — the restart case where the daemon still owes handoff.
func TestHintQueuePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	q, err := OpenHintQueue(dir, 16, reg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := testHint("http://a:1", "key-one", []byte("payload-one"))
	h2 := testHint("http://b:2", "key-two", []byte("payload-two"))
	if !q.Stage(h1) || !q.Stage(h2) {
		t.Fatal("staging under capacity must succeed")
	}
	if err := q.FlushPending(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenHintQueue(dir, 16, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 2 {
		t.Fatalf("reopened queue holds %d hints, want 2", q2.Len())
	}
	got := q2.TakeFor("http://a:1", 10)
	if len(got) != 1 || got[0].Key != "key-one" || !bytes.Equal(got[0].Payload, []byte("payload-one")) {
		t.Fatalf("reopened hint diverged: %+v", got)
	}

	// Resolving removes the hint and, after a flush, its file.
	q2.Resolve(got[0])
	if q2.Len() != 1 {
		t.Fatalf("after resolve: len = %d, want 1", q2.Len())
	}
	if err := q2.FlushPending(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	files := 0
	for _, de := range ents {
		if !de.IsDir() {
			files++
		}
	}
	if files != 1 {
		t.Fatalf("after resolve+flush: %d hint files on disk, want 1", files)
	}
}

// The queue is bounded: staging beyond capacity drops the NEW hint
// (the oldest are closest to replay) and counts the drop.
func TestHintQueueBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	q, err := OpenHintQueue("", 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	q.Stage(testHint("http://a:1", "k1", nil))
	q.Stage(testHint("http://a:1", "k2", nil))
	if q.Stage(testHint("http://a:1", "k3", nil)) {
		t.Fatal("staging past capacity must report the drop")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 (overflow must not evict staged hints)", q.Len())
	}
	if got := reg.Counter("hints_dropped_total").Value(); got != 1 {
		t.Fatalf("hints_dropped_total = %d, want 1", got)
	}
	// Re-staging an already queued identity is a replacement, never a
	// drop — even at capacity.
	if !q.Stage(testHint("http://a:1", "k1", []byte("fresh"))) {
		t.Fatal("re-staging a queued identity must succeed at capacity")
	}
	if got := q.TakeFor("http://a:1", 10); len(got) != 2 {
		t.Fatalf("TakeFor after replace: %d hints, want 2", len(got))
	}
}

// A damaged hint file gets the snapshot verdict on open: skipped,
// counted as corruption, removed — never a crash, never a bad replay.
func TestHintQueueSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenHintQueue(dir, 16, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	q.Stage(testHint("http://a:1", "good", []byte("ok")))
	if err := q.FlushPending(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef"+hintSuffix), []byte("not a framed hint"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	q2, err := OpenHintQueue(dir, 16, reg)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 1 {
		t.Fatalf("len = %d, want 1 (the good hint only)", q2.Len())
	}
	if got := reg.Counter("snapshot_corrupt_total").Value(); got != 1 {
		t.Fatalf("snapshot_corrupt_total = %d, want 1 (damaged hints get the snapshot verdict)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef"+hintSuffix)); !os.IsNotExist(err) {
		t.Fatal("damaged hint file must be removed on open")
	}
}

// A hint whose replay fails deterministically is dropped after its
// attempt budget so the queue cannot wedge on it.
func TestHintQueueDropsAfterMaxAttempts(t *testing.T) {
	reg := telemetry.NewRegistry()
	q, err := OpenHintQueue("", 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	h := testHint("http://a:1", "stubborn", nil)
	q.Stage(h)
	for i := 0; i < hintMaxAttempts; i++ {
		if q.Len() != 1 {
			t.Fatalf("attempt %d: hint vanished early", i)
		}
		q.Fail(h)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after %d failures, want 0", q.Len(), hintMaxAttempts)
	}
	if got := reg.Counter("hints_dropped_total").Value(); got != 1 {
		t.Fatalf("hints_dropped_total = %d, want 1", got)
	}
	// A successful re-stage starts a fresh attempt budget.
	q.Stage(h)
	q.Fail(h)
	if q.Len() != 1 {
		t.Fatal("one failure after a fresh stage must not drop the hint")
	}
}

// DropPeer discards exactly the departed peer's hints — the membership
// reload case where delivery can never happen.
func TestHintQueueDropPeer(t *testing.T) {
	reg := telemetry.NewRegistry()
	q, err := OpenHintQueue("", 8, reg)
	if err != nil {
		t.Fatal(err)
	}
	q.Stage(testHint("http://gone:1", "k1", nil))
	q.Stage(testHint("http://gone:1", "k2", nil))
	q.Stage(testHint("http://stays:2", "k3", nil))
	q.DropPeer("http://gone:1")
	if q.Len() != 1 {
		t.Fatalf("len = %d after DropPeer, want 1", q.Len())
	}
	if got := q.Peers(); len(got) != 1 || got[0] != "http://stays:2" {
		t.Fatalf("peers after DropPeer = %v, want the survivor only", got)
	}
	if got := reg.Counter("hints_dropped_total").Value(); got != 2 {
		t.Fatalf("hints_dropped_total = %d, want 2", got)
	}
}

// A hint write that fails at the sync step removes its temp file at
// once (not at the next reopen) and stays staged: the next flush
// writes it.
func TestHintQueueFailedWriteLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenHintQueue(dir, 16, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	q.Stage(testHint("http://a:1", "k1", []byte("payload")))
	injected := errors.New("injected disk fault")
	restore := faultinject.Activate(faultinject.New(1).On(faultinject.DiskSync, faultinject.Fault{Prob: 1, Err: injected}))
	flushErr := q.FlushPending()
	restore()
	if !errors.Is(flushErr, injected) {
		t.Fatalf("FlushPending = %v, want the injected fault", flushErr)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("after the failed write the hints dir holds %v, want nothing", ents)
	}

	if err := q.FlushPending(); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenHintQueue(dir, 16, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 1 {
		t.Fatalf("reopened queue holds %d hints, want the re-staged one", q2.Len())
	}
}
