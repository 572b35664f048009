package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// record is one timed op as the client saw it.
type record struct {
	status      int
	patchStatus int // session ops only
	latency     time.Duration
	body        []byte
	err         error
}

// send POSTs (or PATCHes) body and returns the status and response
// bytes.
func send(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// setupResult is what one workload set-up leaves for the timed loop.
type setupResult struct {
	d       *daemon
	elapsed time.Duration // exec to healthz plus the workload's own set-up
	answers [][]byte      // response bodies of w.setup, in order
}

// setUp starts a daemon and runs the workload's set-up against it,
// two requests at a time: cold_place warms up on topologies of its
// own, resubmit answers every tenant once, session_drift registers
// every session and solves it once (one at a time). Session op paths are
// filled in here, once the daemon has assigned session IDs.
func setUp(bin string, w *workload) (*setupResult, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, max(w.conns, 2))
	if err != nil {
		return nil, err
	}
	sr := &setupResult{d: d, answers: make([][]byte, len(w.setup))}
	fail := func(err error) (*setupResult, error) {
		d.stop()
		return nil, err
	}
	switch w.name {
	case "cold_place", "resubmit":
		// cold_place has no set-up of its own; it warms the daemon with
		// the same kind of requests (w.setup holds fresh topologies no
		// timed op repeats). resubmit answers every tenant once.
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(w.setup); i = int(next.Add(1) - 1) {
					st, raw, err := send(d.client, http.MethodPost, d.base+w.setup[i].path, w.setup[i].body)
					if err == nil && st != http.StatusOK {
						err = fmt.Errorf("set-up request %d: status %d: %s", i, st, raw)
					}
					if err != nil {
						errs[c] = err
						return
					}
					sr.answers[i] = raw
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fail(err)
			}
		}
	case "session_drift":
		ids := make([]string, len(w.setup))
		for i, s := range w.setup {
			st, raw, err := send(d.client, http.MethodPost, d.base+s.path, s.body)
			if err == nil && st != http.StatusCreated {
				err = fmt.Errorf("registering session %d: status %d: %s", i, st, raw)
			}
			if err != nil {
				return fail(err)
			}
			var view struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &view); err != nil || view.ID == "" {
				return fail(fmt.Errorf("registering session %d: bad response %q", i, raw))
			}
			ids[i] = view.ID
			st, raw, err = send(d.client, http.MethodPost, d.base+"/v1/graphs/"+view.ID+"/partition", sessionSolveBody)
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("first solve of session %d: status %d: %s", i, st, raw)
			}
			if err != nil {
				return fail(err)
			}
			sr.answers[i] = raw
		}
		for i := range w.ops {
			w.ops[i].patchPath = "/v1/graphs/" + ids[w.ops[i].inst]
			w.ops[i].path = w.ops[i].patchPath + "/partition"
		}
	}
	sr.elapsed = time.Since(t0)
	return sr, nil
}

// drive runs one block of the timed closed loop: w.conns connections,
// each sending its next op only after the previous answer arrived. The
// loop only sends prepared bytes, reads responses and records them.
func drive(d *daemon, w *workload, ops []request, recs []record) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				op := &ops[i]
				r := &recs[i]
				start := time.Now()
				if op.patchPath != "" {
					r.patchStatus, _, r.err = send(d.client, http.MethodPatch, d.base+op.patchPath, op.patchBody)
				}
				if r.err == nil {
					r.status, r.body, r.err = send(d.client, http.MethodPost, d.base+op.path, op.body)
				}
				r.latency = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}
