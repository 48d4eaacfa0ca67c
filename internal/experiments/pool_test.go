package experiments

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
)

func TestPoolRunReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	_, err := runCells(Env{Workers: 4}, 10, func(i, _ int) (int, error) {
		switch i {
		case 3:
			return 0, errB
		case 7:
			return 0, errA
		}
		return i, nil
	})
	if err != errB {
		t.Fatalf("got %v, want the lowest-index error %v", err, errB)
	}
}

func TestPoolRunCoversAllCells(t *testing.T) {
	hits := make([]bool, 25)
	out, err := runCells(Env{}, len(hits), func(i, _ int) (int, error) { hits[i] = true; return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h || out[i] != i {
			t.Fatalf("cell %d not run or out of order (%d)", i, out[i])
		}
	}
}

// TestSweepParallelMatchesSerial pins the experiments-layer half of the
// determinism contract: a sweep fanned over the pool produces the exact
// table the serial sweep did, row for row.
func TestSweepParallelMatchesSerial(t *testing.T) {
	e := DefaultEnv()
	e.Quick = true

	e.Workers = 1
	serial, err := GeoServing(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	parallel, err := GeoServing(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:\n%v\nparallel:\n%v", serial, parallel)
	}
}

// TestRunCellsScenariosMatchSerial extends the same contract to the
// paper-figure loops that moved onto runCells: every scenario's table
// must be byte-identical at any pool width (cells recompute exactly
// what the serial loop did, and rows assemble in cell order).
func TestRunCellsScenariosMatchSerial(t *testing.T) {
	base := DefaultEnv()
	base.Quick = true
	sweeps := map[string]func(e Env) (*stats.Table, error){
		"fig12": func(e Env) (*stats.Table, error) { return Fig12(e, model.Llama70B()) },
		"fig14": func(e Env) (*stats.Table, error) { return Fig14(e, model.Llama70B(), []float64{1, 6}) },
		"ablation-threshold": func(e Env) (*stats.Table, error) {
			return AblationThreshold(e, []int{1, 256})
		},
		"extension-ep": func(e Env) (*stats.Table, error) { return ExtensionEP(e) },
		"admission-control": func(e Env) (*stats.Table, error) {
			return AdmissionControl(e, []string{serve.AdmissionNone, serve.AdmissionDeadline})
		},
		"retry-storm": func(e Env) (*stats.Table, error) {
			return RetryStorm(e, []string{"immediate", "backoff"}, time.Minute)
		},
		"failure-recovery": func(e Env) (*stats.Table, error) {
			return FailureRecovery(e, []string{"crash-restart"}, time.Minute)
		},
		"outage-spillover": func(e Env) (*stats.Table, error) { return OutageSpillover(e, time.Minute) },
		"cost-tiered": func(e Env) (*stats.Table, error) {
			return CostTiered(e, []float64{1}, []float64{20}, 4, 3)
		},
		"shed-spill-buy": func(e Env) (*stats.Table, error) {
			return ShedSpillBuy(e, []string{"shed", "buy"}, 20, 0)
		},
		"autoscaling":     func(e Env) (*stats.Table, error) { return Autoscaling(e, []time.Duration{0}) },
		"cluster-routing": func(e Env) (*stats.Table, error) { return ClusterRouting(e, []int{2}) },
		"sim-grid": func(e Env) (*stats.Table, error) {
			cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
			if err != nil {
				return nil, err
			}
			topos, _ := geoSweepAxes(e, nil)
			r, err := runSimGrid(geoGrid(e, cm, topos, []time.Duration{0}), e.Workers)
			if err != nil {
				return nil, err
			}
			tab := stats.NewTable("Cells", "Sim s")
			tab.AddRow(r.Cells, r.SimSeconds)
			return tab, nil
		},
	}
	for name, sweep := range sweeps {
		serialEnv := base
		serialEnv.Workers = 1
		serial, err := sweep(serialEnv)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallelEnv := base
		parallelEnv.Workers = 4
		parallel, err := sweep(parallelEnv)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if len(serial.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s diverged between pool widths:\nserial:\n%v\nparallel:\n%v", name, serial, parallel)
		}
	}
}
