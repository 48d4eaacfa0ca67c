package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/serve"
	"repro/internal/workload"
)

// audit checks a run's outputs against its input trace from outside the
// simulator:
//   - every trace request ID has exactly one PerRequest row, shared-tier
//     and cloud rows included, and no row names an unknown ID;
//   - the named reject columns sum to Rejected, which equals the number
//     of rejected rows;
//   - OwnedSpend + CloudSpend == TotalSpend.
func audit(t *workload.Trace, res *serve.Result) error {
	index := make(map[int]int, len(t.Requests))
	for i, r := range t.Requests {
		index[r.ID] = i
	}
	rows := make([]int, len(t.Requests))
	rejected := 0
	for _, m := range res.PerRequest {
		i, ok := index[m.ID]
		if !ok {
			return fmt.Errorf("audit: row for request %d, which is not in the trace", m.ID)
		}
		rows[i]++
		if m.Rejected {
			rejected++
		}
	}
	for i, n := range rows {
		if n != 1 {
			return fmt.Errorf("audit: request %d has %d rows, want 1", t.Requests[i].ID, n)
		}
	}
	named := res.RejectedKVExhausted + res.RejectedUnservable + res.RejectedCrashDropped + res.Shed
	if named != res.Rejected || rejected != res.Rejected {
		return fmt.Errorf("audit: Rejected %d, named reject columns sum to %d, rejected rows %d",
			res.Rejected, named, rejected)
	}
	if res.OwnedSpend+res.CloudSpend != res.TotalSpend {
		return fmt.Errorf("audit: OwnedSpend %v + CloudSpend %v != TotalSpend %v",
			res.OwnedSpend, res.CloudSpend, res.TotalSpend)
	}
	return nil
}

// digest fingerprints a run's outputs: the SHA-256 of the JSON encoding
// of every PerRequest row followed by the rest of the Result, which
// holds every counter. Two runs that simulated the same thing have the
// same digest. Rows are encoded one at a time to keep the harness's
// memory small next to the simulator's.
func digest(res *serve.Result) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, m := range res.PerRequest {
		if err := enc.Encode(m); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	rest := *res
	rest.PerRequest = nil
	if err := enc.Encode(&rest); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
