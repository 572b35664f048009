// Package diskstore is hgpd's durable state under -state-dir: one
// framed-record directory type, Dir, and the three kinds of payload it
// holds. A killed-and-restarted hgpd reloads them instead of redoing
// the expensive Räcke-style embedding phase or losing what it owed.
//
// A Dir is one directory of records, one file per record, named by a
// hex id plus the directory's suffix. It owns every file-level rule
// once:
//
//   - the frame (WrapWire): magic, format version, treedecomp
//     RNG-stream version, payload length and a SHA-256 checksum — the
//     same frame the cluster's peer wire uses;
//   - the atomic write (Put: temp file → fsync → rename → directory
//     fsync; a failed write removes its temp file) and Delete;
//   - the skip verdict: a record that fails the frame check, or whose
//     payload its kind's decoder rejects, is never served and never
//     fatal — it is counted in snapshot_corrupt_total or
//     snapshot_version_mismatch_total, and a full scan (Each) deletes
//     it;
//   - the newest-first scan, which also removes stray temp files;
//   - staged write-behind (Stage, Unstage, Flush): the serving path
//     stages, a flush writes in one batch, a failed write stays staged.
//
// The three payload kinds:
//
//   - ".snap" decomposition entries, named by their cache key: Store
//     adds the entry encoding (format v2 carries the writing request's
//     orig→canonical permutation; v1 files hit the version-mismatch
//     skip), a bound on the generation, size accounting and a
//     background flusher;
//   - ".hint" hinted-handoff records under hints/: HintQueue keeps the
//     in-memory queue and persists it through its Dir;
//   - ".sess" graph sessions under sessions/: the server encodes each
//     session as JSON and writes it synchronously on every change.
package diskstore
