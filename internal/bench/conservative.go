package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
)

func init() {
	register(&Experiment{
		ID:    "conservative",
		Title: "Conservativeness of transitive access vectors (section 4.4 ablation)",
		Paper: "section 4: TAVs 'are very conservative. They even represent impossible executions because they forget alternatives' — the price of compile-time analysis; run-time field locking ([1]) does not pay it",
		Run:   runConservative,
	})
}

// conservativeSchema: reader's hot path only reads, but a branch that is
// never taken in this workload (guard parameter is always 0) writes the
// audit field. The transitive access vector cannot know the branch is
// dead, so under the fine protocol reader conflicts with auditwrite;
// run-time field locking discovers the dead branch for free.
const conservativeSchema = `
class doc is
    instance variables are
        body  : integer
        audit : integer
    method reader(guard) is
        var x := body
        if guard > 0 then
            audit := audit + 1
        end
        return x
    end
    method auditwrite(n) is
        audit := audit + n
    end
end
`

// ConservativeRow is one measured strategy outcome.
type ConservativeRow struct {
	Strategy       string
	ReaderIsWriter bool // does the compile-time analysis classify reader as an audit writer?
	Blocks         int64
	Committed      int64
}

// RunConservativeWorkload runs never-taken-branch readers against audit
// writers on one shared instance. The writer starts once the reader's
// first transaction holds its locks, and that transaction keeps them
// until the writer has queued behind it or finished its own first
// transaction, so the two overlap however the goroutines are scheduled:
// a protocol that makes them conflict blocks at least once.
func RunConservativeWorkload(strategy engine.Strategy, rounds int) (ConservativeRow, error) {
	c, err := core.CompileSource(conservativeSchema)
	if err != nil {
		return ConservativeRow{}, err
	}
	db := engine.Open(c, strategy)
	var oid storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "doc", storage.IntV(1))
		oid = in.OID
		return err
	})
	if err != nil {
		return ConservativeRow{}, err
	}
	ls0, ts0 := db.Locks().Snapshot(), db.Txns.Snapshot()

	const opsPerTxn = 10
	readerHolds := make(chan struct{})
	var readerHoldsOnce sync.Once
	startWriter := func() { readerHoldsOnce.Do(func() { close(readerHolds) }) }
	var writerFirstDone atomic.Bool
	overlapWriter := func() {
		for db.Locks().Snapshot().Blocks == ls0.Blocks && !writerFirstDone.Load() {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 1 {
				<-readerHolds
			}
			for r := 0; r < rounds; r++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					for k := 0; k < opsPerTxn; k++ {
						var err error
						if g == 0 {
							// guard = 0: the audit branch never runs.
							_, err = db.Send(tx, oid, "reader", storage.IntV(0))
						} else {
							_, err = db.Send(tx, oid, "auditwrite", storage.IntV(1))
						}
						if err != nil {
							return err
						}
						if g == 0 && r == 0 {
							startWriter()
						}
						messageBoundary()
					}
					if g == 0 && r == 0 {
						overlapWriter()
					}
					return nil
				})
				if g == 0 && r == 0 {
					startWriter() // also when the first transaction failed
				}
				if g == 1 && r == 0 {
					writerFirstDone.Store(true)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ConservativeRow{}, err
	}

	tav, _ := c.TAV(c.Schema.Class("doc"), "reader")
	audit := c.Schema.Class("doc").FieldByName("audit")
	return ConservativeRow{
		Strategy:       strategy.Name(),
		ReaderIsWriter: tav.Get(audit.ID) == core.Write,
		Blocks:         db.Locks().Snapshot().Blocks - ls0.Blocks,
		Committed:      db.Txns.Snapshot().Committed - ts0.Committed,
	}, nil
}

func runConservative(w io.Writer) error {
	t := NewTable("strategy", "reader classified audit-writer?", "blocks", "committed")
	for _, s := range []engine.Strategy{engine.FineCC{}, engine.FieldCC{}, engine.RWCC{}} {
		row, err := RunConservativeWorkload(s, 60)
		if err != nil {
			return err
		}
		t.AddF(row.Strategy, yesNo(row.ReaderIsWriter), row.Blocks, row.Committed)
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: the compiler must assume the dead branch can run, so the fine")
	fmt.Fprintln(w, "  protocol serializes reader against auditwrite; field locking, which")
	fmt.Fprintln(w, "  locks at access time, never touches audit and runs block-free. This")
	fmt.Fprintln(w, "  is the compile-time-vs-run-time trade the paper draws in section 6:")
	fmt.Fprintln(w, "  '[1] is less conservative than ours' but 'incurs a much higher")
	fmt.Fprintln(w, "  overhead' — see the overhead experiment for the other side.")
	return nil
}
