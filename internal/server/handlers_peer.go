package server

import (
	"crypto/subtle"
	"errors"
	"io"
	"net/http"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/hgp"
)

// The /v1/peer surface is the cluster's internal wire: peers exchange
// cache entries by key, framed exactly like snapshot files (WrapWire:
// magic, format version, RNG stream version, length, SHA-256). It is
// registered only in cluster mode and is content-addressed — a GET
// returns the entry under the requested key or 404, never a
// computation. Peer handlers participate in drain bookkeeping like
// partition requests: a draining daemon refuses new peer work with 503
// (its peers' health pollers shed it moments later), and an in-flight
// transfer finishes before Shutdown closes the snapshot store.
//
// Trust boundary: the surface shares the public listener, and a cache
// key is a hash of the request that produced it — unrecoverable from
// the entry, so a receiver cannot verify that a pushed payload belongs
// to its key. Structural validation catches corruption, not deceit: a
// client that can reach the port could PUT a valid-but-wrong entry
// under any key and poison answers served cluster-wide. PeerSecret
// closes this: when configured, every peer request must present it
// (checked first, before drain or key validation, in constant time)
// and everything else is 403. Run clusters with a secret unless the
// listen address is genuinely unreachable by untrusted clients. A
// pushed result's cost is checked once a request brings its graph
// (usableResult), so a push cannot lie about what its placement costs
// — but a valid, worse placement under the key still gets served.

// authorizePeer enforces the cluster shared secret, when one is
// configured. It returns false with the 403 already written (and a
// peer_auth_failures_total tick) on a missing or wrong secret.
func (s *Server) authorizePeer(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.PeerSecret == "" {
		return true
	}
	got := r.Header.Get(peerSecretHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.PeerSecret)) == 1 {
		return true
	}
	s.reg.Counter("peer_auth_failures_total").Inc()
	s.writeError(w, http.StatusForbidden, "peer_auth",
		"missing or wrong cluster secret ("+peerSecretHeader+")")
	return false
}

// validPeerKey bounds what a peer may ask for: cache keys are hex
// SHA-256 digests, so anything else is a malformed (or hostile)
// request, rejected before touching any cache.
func validPeerKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// admitPeer runs the shared preamble of every peer data endpoint:
// authentication, drain bookkeeping, key validation — in that order.
// It returns the validated key and whether the request may proceed
// (the response has been written when not).
func (s *Server) admitPeer(w http.ResponseWriter, r *http.Request) (string, bool) {
	if !s.authorizePeer(w, r) || !s.enter(w, peerDrainingMsg) {
		return "", false
	}
	key := r.PathValue("key")
	if !validPeerKey(key) {
		s.inflight.Done()
		s.writeError(w, http.StatusBadRequest, "bad_key", "peer keys are 64-char lowercase hex digests")
		return "", false
	}
	return key, true
}

// entryKind is one kind of cache entry the /v1/peer surface carries.
// Every peer step — the GET and PUT handlers, the request-path fetch,
// the replica push and the anti-entropy pull — goes through this table,
// so each step exists once for both kinds.
type entryKind struct {
	// name is the path segment (/v1/peer/{name}/{key}) and what a hint
	// records so replay can rebuild the path.
	name string
	// decode parses a wire payload (frame already verified) into a value:
	// structural validation, the same verdict as a damaged snapshot file.
	decode func(payload []byte) (any, error)
	// encode renders a value as its wire payload.
	encode func(v any) []byte
	// lookup finds this daemon's copy without touching recency order or
	// hit/miss accounting, which describe its own request stream.
	lookup func(s *Server, key string) (any, bool)
	// has is the repair sweep's "already held?" predicate.
	has func(s *Server, key string) bool
	// land stores a value that came from a peer — a PUT, a request-path
	// fetch (decompositions) or a repair pull — in this daemon's caches.
	// A decomposition built here lands the same way; a result solved
	// here goes through storeResult, which records it checked.
	land func(s *Server, key string, v any)
}

// decompKind: decomposition entries. Lookup falls back from the LRU to
// the snapshot store — an entry evicted from memory but still on disk
// is a hit, which is what lets a restarted owner serve its keys warm —
// and land puts an entry in the LRU and stages it for the snapshot
// store, so it survives this daemon's restart.
var decompKind = &entryKind{
	name: "decomp",
	decode: func(payload []byte) (any, error) {
		dec, perm, err := diskstore.DecodeDecompEntry(payload)
		if err != nil {
			return nil, err
		}
		return &cache.DecompEntry{Dec: dec, Perm: perm}, nil
	},
	encode: func(v any) []byte {
		e := v.(*cache.DecompEntry)
		return diskstore.EncodeDecompEntry(e.Dec, e.Perm)
	},
	lookup: func(s *Server, key string) (any, bool) {
		if v, ok := s.dec.Peek(key); ok {
			return v, true
		}
		if s.store != nil {
			if dec, perm, ok := s.store.Load(key); ok {
				return &cache.DecompEntry{Dec: dec, Perm: perm}, true
			}
		}
		return nil, false
	},
	has: func(s *Server, key string) bool {
		if _, ok := s.dec.Peek(key); ok {
			return true
		}
		return s.store != nil && s.store.Has(key)
	},
	land: func(s *Server, key string, v any) {
		e := v.(*cache.DecompEntry)
		s.dec.Add(key, e)
		if s.store != nil {
			s.store.Enqueue(key, e.Dec, e.Perm)
		}
	},
}

// errPartialResult refuses a partial result at the trust boundary: the
// result cache holds only complete full-pipeline results and pushers
// never send anything else, so one on the wire is corruption or
// hostility, and accepting it would let the result cache replay a
// degraded answer as a full one.
var errPartialResult = errors.New("partial results never enter the result cache; push refused")

// resultKind: full solve results. Results are memory-only (no snapshot
// store), so a restarted daemon 404s on them until it re-solves — the
// decomposition kind carries the durable state. With the result cache
// disabled, has reports "held" (repair never pulls what it could not
// store) and land drops the value: a push is acknowledged, the pusher's
// duty ends at delivery. land replaces only an absent or unchecked
// entry: the receiver cannot tell a result's cost from a wrong one
// until a request brings the graph, so it goes in unchecked and without
// a floor verdict (usableResult, the ladder memo), and a checked entry
// already holds a verified result and the floor verdict a copy would
// drop.
var resultKind = &entryKind{
	name: "result",
	decode: func(payload []byte) (any, error) {
		res, err := diskstore.DecodeResult(payload)
		if err != nil {
			return nil, err
		}
		if res.Partial {
			return nil, errPartialResult
		}
		return res, nil
	},
	encode: func(v any) []byte { return diskstore.EncodeResult(v.(*hgp.Result)) },
	lookup: func(s *Server, key string) (any, bool) {
		if s.results == nil {
			return nil, false
		}
		v, ok := s.results.Peek(key)
		if !ok {
			return nil, false
		}
		return v.(*resultEntry).res, true
	},
	has: func(s *Server, key string) bool {
		if s.results == nil {
			return true
		}
		_, ok := s.results.Peek(key)
		return ok
	},
	land: func(s *Server, key string, v any) {
		if s.results == nil {
			return
		}
		if held, ok := s.results.Peek(key); ok && held.(*resultEntry).checked {
			return
		}
		s.results.Add(key, &resultEntry{res: v.(*hgp.Result)})
	},
}

var entryKinds = []*entryKind{decompKind, resultKind}

// handlePeerGet serves this daemon's copy of a k entry, or 404.
func (s *Server) handlePeerGet(k *entryKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key, ok := s.admitPeer(w, r)
		if !ok {
			return
		}
		defer s.inflight.Done()
		if v, ok := k.lookup(s, key); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(diskstore.WrapWire(k.encode(v)))
			return
		}
		s.writeError(w, http.StatusNotFound, "not_found", "no entry under key")
	}
}

// handlePeerPut accepts a replica-ward push of a k entry. The body runs
// the full snapshot validation gauntlet — frame checksum and versions
// (UnwrapWire), then the kind's structural decode — and a failure at
// either layer rejects the push exactly as a damaged snapshot file is
// skipped at startup. An accepted entry lands through k.land.
func (s *Server) handlePeerPut(k *entryKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key, ok := s.admitPeer(w, r)
		if !ok {
			return
		}
		defer s.inflight.Done()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_body", err.Error())
			return
		}
		payload, err := diskstore.UnwrapWire(raw)
		if err != nil {
			code := "corrupt_frame"
			if errors.Is(err, diskstore.ErrVersionMismatch) {
				// Version skew has its own code: the pusher can log
				// "upgrade in progress" instead of "corruption".
				code = "version_mismatch"
			}
			s.writeError(w, http.StatusBadRequest, code, err.Error())
			return
		}
		v, err := k.decode(payload)
		if err != nil {
			code := "corrupt_entry"
			if errors.Is(err, errPartialResult) {
				code = "partial_result"
			}
			s.writeError(w, http.StatusBadRequest, code, err.Error())
			return
		}
		k.land(s, key, v)
		w.WriteHeader(http.StatusNoContent)
	}
}

// handlePeerKeys serves this daemon's cache key inventory for the
// anti-entropy digest exchange. Like the data endpoints it is gated by
// auth and drain (a draining daemon's inventory is about to leave the
// cluster's working set; repair should pull from a stable replica
// instead), and like the peer GETs it consults memory and disk without
// touching recency order or hit/miss accounting.
func (s *Server) handlePeerKeys(w http.ResponseWriter, r *http.Request) {
	if !s.authorizePeer(w, r) || !s.enter(w, peerDrainingMsg) {
		return
	}
	defer s.inflight.Done()
	writeJSON(w, http.StatusOK, s.localKeys())
}

// handlePeerHealth is the gossip endpoint: always 200 (once
// authenticated), with the body carrying the routing verdict. Draining is reported distinctly from
// ok — a draining daemon still answers peer fetches for what it holds
// (until drain completes), but peers shed it at routing time so no new
// ownership traffic lands on a daemon that is leaving. The memory
// breaker and waiting-room occupancy ride along so an overloaded peer
// is shed before fetch traffic makes its day worse.
func (s *Server) handlePeerHealth(w http.ResponseWriter, r *http.Request) {
	if !s.authorizePeer(w, r) {
		return
	}
	hv := peerHealthView{
		Status:      "ok",
		QueueDepth:  s.queued.Load(),
		QueueLimit:  int64(s.cfg.MaxConcurrent + s.cfg.MaxQueue),
		AuthEnabled: s.cfg.PeerSecret != "",
	}
	if s.isDraining() {
		hv.Status = "draining"
	}
	if s.brk != nil {
		state, _, _ := s.brk.snapshot()
		hv.Breaker = int64(state)
	}
	writeJSON(w, http.StatusOK, hv)
}
