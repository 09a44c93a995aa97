package main

import (
	"os"
	"reflect"
	"testing"
)

// TestSmoke runs every workload in both modes at 1/50 scale and holds
// the names it prints against BENCHMARK.json, so the file and the
// program cannot drift apart.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(listed, have) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", listed, have)
	}
	var e2e, layer []listedMetric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, listedMetric{Name: m.Name, Unit: m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, listedMetric{Name: m.Name, Unit: m.Unit})
	}

	// The workloads use short relative paths under the working
	// directory, as the command does after entering its data directory.
	t.Chdir(t.TempDir())
	runDir = "run"
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if err := os.MkdirAll(runDir, 0o755); err != nil {
				t.Fatal(err)
			}
			cfg := &config{workload: w.name, seed: 7, seconds: 6, scale: 50, trace: trace}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.failed, res.attempted)
			}
			want := e2e
			if trace {
				want = layer
				if res.metrics, err = completeLayerMetrics(res.metrics); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
			var got []listedMetric
			for _, m := range res.metrics {
				got = append(got, listedMetric{Name: m.Name, Unit: m.Unit})
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v prints\n%v\nBENCHMARK.json lists\n%v", w.name, trace, got, want)
			}
			if err := os.RemoveAll(runDir); err != nil {
				t.Fatal(err)
			}
		}
	}
}
