package main

import (
	"fmt"
	"regexp"
)

// benchSpec is BENCHMARK.json: the contract this harness reports against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	var s benchSpec
	if err := readJSON(path, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must not be empty", path)
	}
	return &s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// mode lists the metrics a run's result object carries: the end-to-end
// metrics, or for a traced run the per-layer ones.
func (s *benchSpec) mode(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// reported picks those metrics out of what the run measured.
func (s *benchSpec) reported(r *runResult) map[string]metric {
	out := make(map[string]metric)
	for _, m := range s.mode(r.Trace) {
		out[m.Name] = r.Metrics[m.Name]
	}
	return out
}

// check verifies that a run measured every metric BENCHMARK.json names for
// its mode, and nothing that BENCHMARK.json does not name, each with the
// unit given there.
func (s *benchSpec) check(r *runResult) error {
	units := make(map[string]string, len(s.EndToEnd)+len(s.PerLayer))
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, m := range s.mode(r.Trace) {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("metric %s is in %s but was not measured", m.Name, specFile)
		}
	}
	for name, got := range r.Metrics {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %s was measured but is not in %s", name, specFile)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, %s says %q", name, got.Unit, specFile, unit)
		}
	}
	return nil
}
