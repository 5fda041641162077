package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set for
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are written down. The harness reads them from there
// and refuses to report a metric set that differs.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// reported is one metric value with its unit, as printed.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is one run of one workload. Its exported fields are the line
// the benchmark contract asks for, the last line of standard output; the
// rest goes to the log and to results.json.
type runOutput struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`

	samples int               // timed operations behind the latency figures
	tailPct float64           // percentile op_tail_ms was read at
	info    map[string]string // reported, not gated: digests, ratios
}

// attachUnits pairs measured values with the declared metrics. It is an
// error for the two name sets to differ in either direction, so the
// results can never carry a metric BENCHMARK.json does not name, or miss
// one it does.
func attachUnits(defs []metricDef, values map[string]float64) (map[string]reported, error) {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared but was not measured", d.Name)
		}
		out[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not declared", name)
		}
	}
	return out, nil
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Samples   int                 `json:"samples"`
	TailPct   float64             `json:"tail_percentile"`
	EndToEnd  map[string]reported `json:"end_to_end"`
	PerLayer  map[string]reported `json:"per_layer,omitempty"`
	Info      map[string]string   `json:"info,omitempty"`
}

// suiteResult is results.json.
type suiteResult struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Quick     bool                      `json:"quick,omitempty"`
	Clients   int                       `json:"clients"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable writes one workload's metrics by name with unit and bound.
func printTable(w io.Writer, name string, defs []metricDef, values map[string]reported) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tvalue\tunit\tbetter\tbound\n", name)
	for _, d := range defs {
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.3g%%", 100*d.Bound)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", d.Name, values[d.Name].Value, d.Unit, d.Better, bound)
	}
	tw.Flush()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
