package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file records the host beside the metrics. A shared virtual
// machine does not always get its processors, and when two sets of runs
// of the same code disagree the record says whether the host differed:
// the share of processor time the hypervisor withheld during the
// workload, and a fixed arithmetic kernel timed before and after it.
// Nothing here is a metric and nothing here changes what is measured.

// hostRecord is printed beside the metrics so that two sets of runs
// that disagree can be told apart by host, not code. It is not a metric.
type hostRecord struct {
	Workload     string     `json:"workload"`
	Seed         uint64     `json:"seed"`
	NumCPU       int        `json:"nproc"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	GoVersion    string     `json:"go"`
	Filesystem   string     `json:"filesystem"`
	NoiseProbeMS [2]float64 `json:"noise_probe_ms"` // before and after the workload
	MemProbeMS   float64    `json:"mem_probe_ms"`   // after the workload
	StealPct     float64    `json:"steal_pct"`      // processor time the hypervisor withheld during the workload
}

// noiseProbe times a fixed arithmetic kernel (about 200 ms on the box
// the benchmark was calibrated on). A probe that takes longer than its
// twin in another set says the host, not the code, was slower.
func noiseProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	noiseSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var noiseSink uint64

// memProbe times a fixed walk of dependent random reads over a table
// far larger than the processor's cache (about 200 ms on the same box).
// What disturbs this host most is not seen by the arithmetic kernel,
// which stays within a few percent while this walk doubles; run-to-run
// throughput follows the walk better (README.md, "Steadiness"). It runs
// only after the workload, so its table never counts towards the
// workload's peak memory.
func memProbe() float64 {
	table := make([]uint32, 1<<24) // 64 MiB
	x := uint32(2463534242)
	for i := range table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[i] = x
	}
	t0 := time.Now()
	at := uint32(0)
	for i := uint32(0); i < 2_000_000; i++ {
		// Each read depends on the last; adding i keeps the walk from
		// closing into a short cycle that would fit the cache.
		at = table[(at+i*2654435761)&(1<<24-1)]
	}
	noiseSink += uint64(at)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func filesystemType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// stealTicks reads the time the hypervisor has withheld from this
// machine's processors while they had work to run ("steal", the eighth
// value of the cpu line of /proc/stat), in clock ticks of 10 ms. It is 0
// where the host does not report it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// stealShare converts a difference of stealTicks readings over an
// interval into the share of the machine's processor time withheld.
func stealShare(ticks int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ticks) * 0.01 / (d.Seconds() * float64(runtime.NumCPU()))
}
