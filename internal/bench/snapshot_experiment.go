package bench

// The snapshot-reads payoff experiment: the contention × read-ratio
// matrix behind EXPERIMENTS.md "snapshot reads". Each cell runs the
// same workload twice — read-only transactions through the pessimistic
// lock table, then through the lock-free multiversion snapshot path —
// so the table shows exactly what the paper's static access vectors
// buy when they are used to route readers off the lock table entirely.

import (
	"fmt"
	"io"
	"time"
)

func init() {
	register(&Experiment{
		ID:    "snapshotreads",
		Title: "Snapshot reads: contention × read-ratio, locking vs lock-free read path",
		Paper: "section 4.3: access vectors statically classify method sets as read-only; routed onto a multiversion read path, those transactions acquire zero locks and never stall (or are stalled by) writers",
		Run:   runSnapshotViews,
	})
}

func runSnapshotViews(w io.Writer) error {
	t := NewTable("workload", "read%", "workers", "read path", "txns", "lock reqs", "txn/s", "p50", "p95", "p99")
	for _, wl := range []EngineWorkload{EngineScanMix, EngineReadMostly} {
		for _, ratio := range []int{50, 95} {
			for _, workers := range []int{1, 8} {
				for _, snap := range []bool{false, true} {
					sc := DefaultEngineScenario(EngineBanking, wl, DistZipf, workers)
					sc.ReadRatio = ratio
					sc.SnapshotViews = snap
					res, err := RunEngineScenario(applyDurations(sc))
					if err != nil {
						return err
					}
					path := "locking"
					if snap {
						path = "snapshot"
					}
					t.AddF(string(wl), ratio, workers, path,
						res.Ops, res.LockRequests,
						fmt.Sprintf("%.0f", res.PerSec),
						res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond),
						res.P99.Round(time.Microsecond))
				}
			}
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: the snapshot rows' lock-request counts drop by the read share")
	fmt.Fprintln(w, "  of the mix, and the gap widens with workers and read ratio: snapshot")
	fmt.Fprintln(w, "  readers cost no lock-table traffic and writers never queue behind a")
	fmt.Fprintln(w, "  scan holding instance locks")
	return nil
}
