package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// verifyConns is how many connections read the final values in parallel.
const verifyConns = 8

// verifyInput is what the load phase hands the verifier.
type verifyInput struct {
	names  []string
	ledger *ledger  // merged over all clients
	stale  []string // read-your-writes violations the clients caught
	// faulted marks a run with a kill/restart schedule. The gateway's
	// pool resubmits a transaction whose node connection died
	// (at-least-once, internal/gateway/pool.go), so an increment in
	// flight at a kill may be applied twice without the client seeing an
	// error. On such a run a value above its bound is counted (dupApplied)
	// and reported, not fatal; a value below it — an acknowledged write
	// lost — is fatal on every run.
	faulted bool
}

// verify reads every object through the gateway and checks the run's
// outputs. Any returned violation makes the run invalid:
//   - a sessioned read older than the session's own committed write;
//   - an object whose value is below its acknowledged increments (a lost
//     acknowledged write), or above them plus the client's indeterminate
//     requests on a run without faults;
//   - Σ values outside Σ bounds (transfers must conserve).
func verify(gwURL string, in verifyInput) (violations []string, dupApplied int64) {
	violations = append(violations, in.stale...)
	values, errs := readAll(gwURL, in.names)
	violations = append(violations, errs...)
	if len(errs) > 0 {
		return violations, 0
	}
	var sum, sumLo, sumHi int64
	for i, v := range values {
		lo, hi := in.ledger.lo[i], in.ledger.hi[i]
		sum, sumLo, sumHi = sum+v, sumLo+lo, sumHi+hi
		switch {
		case v < lo:
			violations = append(violations, fmt.Sprintf(
				"acknowledged write lost on %s: value %d, acknowledged increments sum to at least %d", in.names[i], v, lo))
		case v > hi && in.faulted:
			dupApplied += v - hi
		case v > hi:
			violations = append(violations, fmt.Sprintf(
				"unacknowledged write on %s: value %d, acknowledged plus indeterminate increments sum to at most %d", in.names[i], v, hi))
		}
	}
	if sum < sumLo || (sum > sumHi && !in.faulted) {
		violations = append(violations, fmt.Sprintf(
			"conservation broken: values sum to %d, committed increments bound it to [%d, %d]", sum, sumLo, sumHi))
	}
	return violations, dupApplied
}

// readAll reads every object's value with an unsessioned GET /read.
func readAll(gwURL string, names []string) ([]int64, []string) {
	values := make([]int64, len(names))
	var (
		mu   sync.Mutex
		errs []string
		wg   sync.WaitGroup
	)
	for w := 0; w < verifyConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: requestTimeout}
			defer hc.CloseIdleConnections()
			for i := w; i < len(names); i += verifyConns {
				v, err := readValue(hc, gwURL, names[i])
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("verify read of %s failed: %v", names[i], err))
					mu.Unlock()
					continue
				}
				values[i] = v
			}
		}(w)
	}
	wg.Wait()
	return values, errs
}

func readValue(hc *http.Client, gwURL, obj string) (int64, error) {
	resp, err := hc.Get(gwURL + "/read?obj=" + obj)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var tr txnResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, err
	}
	for _, r := range tr.Reads {
		if r.Obj == obj {
			return r.Value, nil
		}
	}
	return 0, fmt.Errorf("response holds no read of %s", obj)
}
