package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// Calibration is how the end-to-end bounds in BENCHMARK.json are set.
// It runs every workload `passes` times as two interleaved sets (pass i
// belongs to set i%2, each pass with its own seed), as the driver does,
// and prints each set's median, minimum and maximum of every end-to-end
// metric. A metric's bound is the largest, over the workloads, of
//
//	a floor (5 % for timings and rates, 2 % for sizes),
//	3 x the inter-quartile spread of either set or of all passes (the
//	  driver wants a spread of a third of the bound),
//	how much worse the second set's median was than the first's,
//
// rounded up to a whole percent. The driver does not hold the spread of
// setup_s against its bound, only the second median against the first,
// and the difference of two medians of ten moves by about half the
// spread of one run: setup_s takes 2 x its spread, and at least the
// largest of the other bounds. A metric that needs more than the
// driver's cap of 25 % is not steady enough to gate on: calibration then
// fails and writes nothing, and the metric has to be made steadier or
// moved to the per-layer list.

const (
	boundCap      = 0.25
	benchmarkJSON = "BENCHMARK.json" // at the root of the checkout, where the command is run
)

// benchmarkFile mirrors BENCHMARK.json. Field order is the file's.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []namedWhy      `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []listedMetric  `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type listedMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runOnce runs one workload in a fresh process — peak memory and set-up
// are per process — and returns the metrics of its result line.
func runOnce(workload string, seed, seconds int) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct bool
		Failed  int64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: incorrect, or %d operations failed", workload, seed, line.Failed)
	}
	if len(lines) > 1 {
		fmt.Fprintf(os.Stderr, "calibrate: %s\n", lines[len(lines)-2]) // the host record
	}
	vals := make(map[string]float64, len(line.Metrics))
	for name, m := range line.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

func runCalibration(passes, seconds int) error {
	if passes < 2 {
		return fmt.Errorf("-calibrate needs at least 2 passes (two sets)")
	}
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	// values[workload][metric][set] = that set's passes
	values := map[string]map[string][2][]float64{}
	for pass := 0; pass < passes; pass++ {
		for _, w := range bf.Workloads {
			vals, err := runOnce(w.Name, 1000+pass, seconds)
			if err != nil {
				return err
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][2][]float64{}
			}
			for name, v := range vals {
				sets := values[w.Name][name]
				sets[pass%2] = append(sets[pass%2], v)
				values[w.Name][name] = sets
			}
			fmt.Fprintf(os.Stderr, "calibrate: pass %d/%d %s done\n", pass+1, passes, w.Name)
		}
	}

	fmt.Printf("%-14s %-22s %42s %42s %7s %7s %7s\n", "workload", "metric", "set A median [min, max]", "set B median [min, max]", "range", "iqr", "A->B")
	var unsteady []string
	largest := 0.0
	for i := range bf.EndToEnd {
		m := &bf.EndToEnd[i]
		bound := 0.05
		if m.Unit == "B" || m.Unit == "MiB" {
			bound = 0.02
		}
		for _, w := range bf.Workloads {
			sets, ok := values[w.Name][m.Name]
			if !ok {
				return fmt.Errorf("%s did not report %s", w.Name, m.Name)
			}
			all := append(append([]float64(nil), sets[0]...), sets[1]...)
			rng := (slices.Max(all) - slices.Min(all)) / median(all)
			iqr := max(iqrSpread(sets[0]), iqrSpread(sets[1]), iqrSpread(all))
			// How much worse set B's median is than set A's, the second
			// thing the driver holds against the bound.
			drift := (median(sets[1]) - median(sets[0])) / median(sets[0])
			if m.Better == "higher" {
				drift = -drift
			}
			fmt.Printf("%-14s %-22s %42s %42s %6.1f%% %6.1f%% %+6.1f%%\n", w.Name, m.Name, describe(sets[0]), describe(sets[1]), 100*rng, 100*iqr, 100*drift)
			need := max(3*iqr, drift)
			if m.Name == "setup_s" {
				need = max(2*iqr, drift)
			}
			if need > boundCap {
				unsteady = append(unsteady, fmt.Sprintf("%s on %s needs a bound of %.0f%%", m.Name, w.Name, 100*need))
			}
			bound = max(bound, need)
		}
		m.Bound = math.Ceil(bound*100) / 100
		largest = max(largest, m.Bound)
	}
	for i := range bf.EndToEnd {
		m := &bf.EndToEnd[i]
		if m.Name == "setup_s" {
			m.Bound = max(m.Bound, largest)
		}
		fmt.Printf("%-14s %-22s bound %.2f\n", "", m.Name, m.Bound)
	}
	if len(unsteady) > 0 {
		return fmt.Errorf("not steady enough to gate within the cap of %.0f%%, %s unchanged: %s", 100*boundCap, benchmarkJSON, strings.Join(unsteady, "; "))
	}

	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchmarkJSON, append(out, '\n'), 0o644)
}

func describe(xs []float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), slices.Min(xs), slices.Max(xs))
}
