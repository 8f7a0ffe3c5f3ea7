package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the contract this program's output is
// checked against. The program reads it for metric units and bounds so
// that the two can not drift apart.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent: the program runs from the repository root, its tests from
// benchmark/.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, c := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}
