package workload

import (
	"testing"
	"time"
)

// TestRetryPolicyDefaults pins the nil-safe accessor defaults and the
// validation boundaries of RetryPolicy.
func TestRetryPolicyDefaults(t *testing.T) {
	var nilPolicy *RetryPolicy
	if nilPolicy.Base() != DefaultRetryBackoffBase || nilPolicy.Cap() != DefaultRetryBackoffCap {
		t.Fatal("nil policy accessors must return the documented defaults")
	}
	if err := nilPolicy.Validate(); err != nil {
		t.Fatalf("nil policy must validate: %v", err)
	}
	good := &RetryPolicy{BackoffBase: time.Second, BackoffCap: 10 * time.Second, Jitter: 0.5, BudgetRatio: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := []*RetryPolicy{
		{BackoffBase: -time.Second},
		{BackoffBase: 10 * time.Second, BackoffCap: time.Second},
		{Jitter: 1.5},
		{BudgetRatio: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d validated", i)
		}
	}
}
