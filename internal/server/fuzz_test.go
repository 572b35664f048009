package server

import (
	"os"
	"path/filepath"
	"testing"

	"hierpart/internal/cache/diskstore"
	"hierpart/internal/telemetry"
)

// FuzzDecodeSession fuzzes the session restore, a decoder on the disk
// trust boundary (the payload of a -state-dir/sessions record). It must
// never panic, and a payload it accepts must yield a session that passes
// a registration's checks — a non-empty instance, no negative solver
// parameter, and a state budget in (0, -max-states] — whatever the
// record says. The size limits are not among them: a live session may
// outgrow them through PATCH, and its record must still restore.
func FuzzDecodeSession(f *testing.F) {
	const id = "5d35fc4ec02f61c6" // the committed record's session
	raw, err := os.ReadFile(filepath.Join("..", "cache", "diskstore", "testdata", "records", id+".sess"))
	if err != nil {
		f.Fatal(err)
	}
	seed, err := diskstore.UnwrapWire(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// The state cap is the default the committed record was written under.
	s, err := New(Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sess, err := s.decodeSession(id, payload)
		if err != nil {
			return
		}
		if sess.g.N() == 0 {
			t.Fatal("restored an empty graph")
		}
		sv := sess.sv
		if sv.Eps < 0 || sv.Trees < 0 || sv.FMPasses < 0 {
			t.Fatalf("restored negative solver parameters: %+v", sv)
		}
		if sv.MaxStates <= 0 || sv.MaxStates > s.cfg.MaxStates {
			t.Fatalf("restored state budget %d outside (0, %d]", sv.MaxStates, s.cfg.MaxStates)
		}
	})
}
