// Command benchmark is the repository's one standing benchmark: four
// workloads — {over the wire, embedded} x {durable, volatile} — each run
// by one command that makes its inputs from -seed, measures for
// -seconds, checks its outputs and prints every metric by name and unit.
// README.md in this directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's arguments: workload, seed, seconds and trace are
// the driver's contract, dir and spans say where the run may write.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // data directory; the process works inside it
	spans    string // file the raw spans of a traced run are written to
	scale    int    // 1; the smoke test divides populations, fixed counts and window length by it
}

const (
	workers       = 2               // generator goroutines / connections, always
	windowLength  = 2 * time.Second // one timed window
	setupRepeats  = 5               // rigs set up and measured per untraced run; setup_s is the median set-up
	latencyStride = 16              // closed loops time one transaction in this many
)

// window returns the scaled window length.
func (c *config) window() time.Duration { return windowLength / time.Duration(c.scale) }

// windows returns how many windows fit -seconds (at least 3, so a
// median exists).
func (c *config) windows() int {
	return max(3, c.seconds/int(windowLength/time.Second))
}

// scaled divides a population or fixed count by the smoke-test scale.
func (c *config) scaled(n int) int {
	n /= c.scale
	if n < 64 {
		n = 64
	}
	return n
}

// result is what one workload hands back: its operation counts, the
// metrics of the mode it ran in, and free-text report lines (the ladder)
// printed above the metrics.
type result struct {
	attempted int64
	failed    int64
	metrics   []metric
	report    []string
}

func (r *result) add(m ...metric) { r.metrics = append(r.metrics, m...) }

func (r *result) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// workload is one entry of the 2x2. run returns an error when an output
// check fails; the process then exits non-zero without a result line.
type workload struct {
	name string
	run  func(*config) (*result, error)
}

var workloads = []workload{
	{"wire_transfer", runWireTransfer},
	{"embedded_mix", func(c *config) (*result, error) { return runEmbedded(c, false) }},
	{"embedded_hot", func(c *config) (*result, error) { return runEmbedded(c, true) }},
	{"restart", runRestart},
}

func main() {
	cfg := config{scale: 1}
	var trace, calibrate int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: wire_transfer, embedded_mix, embedded_hot or restart")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generator")
	flag.IntVar(&cfg.seconds, "seconds", 20, "seconds of timed windows")
	flag.IntVar(&trace, "trace", 0, "1: run with spans and layer probes on and print the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", "", "data directory (default: .bench_build/data under the working directory)")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1: write the raw spans kept in memory to this file at exit")
	flag.IntVar(&calibrate, "calibrate", 0, "run this many full passes in two interleaved sets and write the end-to-end bounds")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	if calibrate > 0 {
		if err := runCalibration(calibrate, cfg.seconds); err != nil {
			fatal(err)
		}
		return
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q", cfg.workload))
	}
	if err := enterDataDir(&cfg); err != nil {
		fatal(err)
	}
	if cfg.spans != "" && !filepath.IsAbs(cfg.spans) {
		fatal(fmt.Errorf("-spans must be an absolute path (the process works inside -dir)"))
	}

	// All load comes from this process on at most two processors, so a
	// larger host measures the same thing.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), workers))
	host := hostRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Filesystem: filesystemType("."),
	}
	host.NoiseProbeMS[0] = noiseProbe()
	t0, s0 := time.Now(), stealTicks()

	res, err := w.run(&cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: output check failed: %w", cfg.workload, err))
	}
	host.StealPct = 100 * stealShare(stealTicks()-s0, time.Since(t0))
	host.NoiseProbeMS[1] = noiseProbe()
	host.MemProbeMS = memProbe()
	if cfg.trace {
		if res.metrics, err = completeLayerMetrics(res.metrics); err != nil {
			fatal(err)
		}
	}
	if err := os.RemoveAll(runDir); err != nil {
		fatal(err)
	}

	for _, line := range res.report {
		fmt.Println(line)
	}
	printMetrics(res.metrics)
	hostLine, _ := json.Marshal(map[string]hostRecord{"host": host})
	fmt.Println(string(hostLine))
	printResultLine(res)
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.failed, res.attempted)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	if runDir != "" {
		os.RemoveAll(runDir) //nolint:errcheck // already failing
	}
	os.Exit(1)
}

// runDir is the per-process directory, relative to the data directory
// the process changed into, that holds everything a run writes.
var runDir string

// enterDataDir creates the data directory and makes it the working
// directory, so every path the run uses is short and relative — a unix
// socket path may not exceed 108 bytes, and a checkout can sit deep.
func enterDataDir(cfg *config) error {
	if cfg.dir == "" {
		cfg.dir = filepath.Join(".bench_build", "data")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	if err := os.Chdir(cfg.dir); err != nil {
		return err
	}
	runDir = "run-" + strconv.Itoa(os.Getpid())
	return os.MkdirAll(runDir, 0o755)
}

// printMetrics prints every metric by name with its unit, the number of
// windows, repeats or samples behind it and their inter-quartile spread.
func printMetrics(ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%-32s %16s %-8s", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d iqr=%.2f%%", m.N, 100*m.Spread)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// printResultLine prints the one JSON object the driver reads, last.
func printResultLine(res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// rigs says how a run spreads its windows. An untraced run sets up
// setupRepeats rigs and measures an equal share of the windows on each:
// the level a rig runs at is partly settled when it is set up and partly
// a matter of when it runs (on the box this was built on, rigs set up one
// after the other in one process ran wire_transfer at anything from 105 k
// to 138 k txn/s, each steadily), so ten windows on five rigs agree
// better from run to run than ten windows on one. A traced run reports
// no set-up time and pairs traced with untraced windows, so it measures
// them all on one rig.
func (c *config) rigs() (rigs, windowsEach int) {
	if c.trace {
		return 1, c.windows()
	}
	return setupRepeats, max(1, c.windows()/setupRepeats)
}

// eachRig sets a workload up `rigs` times, one rig at a time. It times
// each set-up, has the rig measured, tears it down and collects the
// heap, so peak memory is one rig's and not the sum of their garbage.
func eachRig[R any](rigs int, setup func(i int, dir string) (R, error), measure func(i int, rig R) error, teardown func(R) error) (setups []float64, err error) {
	for i := 0; i < rigs; i++ {
		dir := filepath.Join(runDir, "rig-"+strconv.Itoa(i))
		t0 := time.Now()
		rig, err := setup(i, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = measure(i, rig)
		if terr := teardown(rig); err == nil {
			err = terr
		}
		if err == nil {
			err = os.RemoveAll(dir)
		}
		if err != nil {
			return nil, fmt.Errorf("rig %d: %w", i, err)
		}
		runtime.GC()
	}
	return setups, nil
}

// heapAfterGC returns the live heap after a forced collection. Callers
// drop their own sample buffers first so the figure is the store's.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the second empties what the first moved to the pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMetric is the live heap per live instance, taken while the
// database is still open. It is a per-layer metric: it includes the
// version chains, whose length depends on how readers and writers met,
// so on the 256 objects of embedded_hot it moves by a tenth from run to
// run.
func heapMetric(live int) metric {
	return metric{Name: "storage.heap_bytes_per_object", Unit: "B", Value: float64(heapAfterGC()) / float64(live)}
}

func peakRSSMetric() metric {
	return metric{Name: "peak_rss_mb", Unit: "MiB", Value: peakRSSMiB()}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
