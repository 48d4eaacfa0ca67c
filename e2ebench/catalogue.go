package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// catalogueJSON describes every metric the benchmark reports (unit,
// direction, time base, layer), the predictions tying layer metrics to
// end-to-end metrics, and the workloads. BENCHMARK.json at the
// repository root lists the same names, units and directions, with each
// end-to-end metric's regression bound.
//
//go:embed metrics.json
var catalogueJSON []byte

// catalogue is the part of metrics.json the harness reads.
type catalogue struct {
	Metrics []struct {
		Name     string `json:"name"`
		Kind     string `json:"kind"` // end_to_end or per_layer
		Unit     string `json:"unit"`
		Better   string `json:"better"`
		TimeBase string `json:"time_base"` // host or sim
	} `json:"metrics"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadCatalogue() (*catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(catalogueJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &c, nil
}
