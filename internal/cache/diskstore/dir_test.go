package diskstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// copyRecords copies testdata/records into a fresh directory, so scans
// (which delete damaged files) never touch the committed fixtures.
func copyRecords(t *testing.T) (dir string, raw map[string][]byte) {
	t.Helper()
	dir, raw = t.TempDir(), map[string][]byte{}
	ents, err := os.ReadDir("testdata/records")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join("testdata/records", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		raw[filepath.Ext(e.Name())] = b
	}
	return dir, raw
}

// The files in testdata/records were written by the on-disk code that
// kept a separate store per kind: a decomposition snapshot (testDecomp
// seed 7 with a permutation), a hint carrying sampleResult, and a graph
// session. All three load through Dir, and re-encoding what was loaded
// gives back each file byte for byte.
func TestRecordsWrittenBeforeDirLoad(t *testing.T) {
	dir, raw := copyRecords(t)
	reg := telemetry.NewRegistry()

	s, err := Open(dir, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := testDecomp(t, 7)
	wantPerm := rand.New(rand.NewSource(7)).Perm(len(want.Trees[0].LeafOf))
	var snapKey string
	if err := s.LoadAll(0, func(key string, d *treedecomp.Decomposition, perm []int) {
		snapKey = key
		sameDecomp(t, want, d)
		if !reflect.DeepEqual(perm, wantPerm) {
			t.Fatalf("perm = %v, want %v", perm, wantPerm)
		}
		if !bytes.Equal(WrapWire(EncodeDecompEntry(d, perm)), raw[entrySuffix]) {
			t.Fatal("the snapshot re-encodes to other bytes")
		}
	}); err != nil || snapKey == "" {
		t.Fatalf("snapshot not loaded (err %v)", err)
	}

	q, err := OpenHintQueue(dir, 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	hs := q.TakeFor("http://10.0.0.2:8080", 4)
	if len(hs) != 1 || hs[0].Kind != "result" || hs[0].Key != snapKey {
		t.Fatalf("hints = %+v, want one result hint for %s", hs, snapKey)
	}
	if !bytes.Equal(hs[0].Payload, EncodeResult(sampleResult())) {
		t.Fatal("the hint's payload is not sampleResult's encoding")
	}
	if !bytes.Equal(WrapWire(encodeHint(hs[0])), raw[hintSuffix]) {
		t.Fatal("the hint re-encodes to other bytes")
	}

	sessions, err := OpenDir(dir, SessionSuffix, reg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sessions.Each(0, func(id string, payload []byte) error {
		var snap struct {
			ID      string `json:"id"`
			Version int64  `json:"version"`
		}
		if err := json.Unmarshal(payload, &snap); err != nil {
			return err
		}
		if snap.ID != id || snap.Version != 2 {
			t.Fatalf("session %s: payload names %q at version %d", id, snap.ID, snap.Version)
		}
		if !bytes.Equal(WrapWire(payload), raw[SessionSuffix]) {
			t.Fatal("the session record re-frames to other bytes")
		}
		n++
		return nil
	}); err != nil || n != 1 {
		t.Fatalf("sessions loaded = %d (err %v), want 1", n, err)
	}

	for _, c := range []string{"snapshot_corrupt_total", "snapshot_version_mismatch_total"} {
		if got := reg.Counter(c).Value(); got != 0 {
			t.Fatalf("%s = %d, want 0", c, got)
		}
	}
}

// Stage and Unstage race a running flush loop; once the writers stop,
// one more Flush leaves on disk exactly the ids whose last operation was
// a Stage, each holding its last staged payload.
func TestDirStagingRacesFlush(t *testing.T) {
	d, err := OpenDir(t.TempDir(), ".rec", telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"0a", "0b", "0c", "0d"} // one per writer, so its last op is well defined
	last := make([]int, len(ids))           // -1: unstaged; else the last staged payload
	stop, flushed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				_, _, _ = d.Flush()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				if rng.Intn(3) == 0 {
					d.Unstage(ids[w])
					last[w] = -1
					continue
				}
				p := byte(i)
				d.Stage(ids[w], func() []byte { return []byte{p} })
				last[w] = i
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flushed
	if _, _, err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for w, id := range ids {
		var got []byte
		err := d.Read(id, func(p []byte) error { got = p; return nil })
		switch {
		case last[w] < 0 && !errors.Is(err, os.ErrNotExist):
			t.Fatalf("%s: last unstaged, but Read = %v, %v", id, got, err)
		case last[w] >= 0 && (err != nil || !bytes.Equal(got, []byte{byte(last[w])})):
			t.Fatalf("%s: Read = %v, %v; want the last staged payload [%d]", id, got, err, last[w])
		}
	}
}
