package experiments

import (
	"repro/internal/conc"
)

// runCells fans n independent sweep cells over a pool of e.Workers
// workers (0 uses GOMAXPROCS, 1 is the serial reference path that
// simbench compares against) and returns their results in cell order,
// so tables built from them are byte-identical to the serial loop at
// any pool width. This is how Env.Workers reaches every scenario: any
// experiment whose loop runs one deployment per iteration fans out
// through here. Cells must share only read-only state (traces, cost
// models) and construct their own clusters/routers.
//
// Each cell receives the width its own internal simulator pools
// (replica/region stepping) should use: when the sweep itself fans out,
// cells run serially inside — the cells already saturate the cores and
// nested full-width pools would oversubscribe them — while a serial
// sweep hands the cells the caller's requested width unchanged. All
// cells run to completion even when one fails, and the lowest-index
// error is returned, whichever worker hit an error first.
func runCells[T any](e Env, n int, run func(i, workers int) (T, error)) ([]T, error) {
	workers, cellWorkers := conc.Workers(e.Workers), e.Workers
	if workers > 1 {
		cellWorkers = 1
	}
	out := make([]T, n)
	errs := make([]error, n)
	conc.For(n, workers, func(i int) { out[i], errs[i] = run(i, cellWorkers) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
