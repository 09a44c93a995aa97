package lock

import "testing"

// A row admits the FIFO prefix of waiters that fit together with its
// holders, and a release rings every one of them at once: a batch of
// compatible waiters does not file in one by one. The first waiter that
// does not fit stops the prefix, also for compatible waiters behind it.
func TestPromoteRingsEveryAdmittedWaiter(t *testing.T) {
	e := &entry{}
	e.holders = e.inline[:0]
	e.holders = append(e.holders, holder{txn: 1, modes: grantSet{first: X}})
	modes := []Mode{S, S, X, S}
	ws := make([]*waiter, len(modes))
	for i, mode := range modes {
		w := &waiter{txn: TxnID(i + 2), mode: mode, ready: make(chan struct{}, 1)}
		w.lead = w
		ws[i] = w
		e.enqueue(w)
	}
	rung := func() (out []TxnID) {
		for _, w := range ws {
			select {
			case <-w.ready:
				out = append(out, w.txn)
			default:
			}
		}
		return out
	}

	if e.admitted() != 0 || e.promote() {
		t.Fatalf("behind an X holder: admitted %d, want 0 and no ring", e.admitted())
	}
	if got := rung(); len(got) != 0 {
		t.Fatalf("rang %v behind an X holder", got)
	}

	e.drop(e.find(1))
	if !e.promote() {
		t.Fatal("release rang nobody")
	}
	if got := rung(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("rang %v, want both S waiters ahead of the X: [2 3]", got)
	}
	if n := e.admitted(); n != 2 {
		t.Fatalf("admitted %d, want 2", n)
	}
	if e.fits(len(e.queue), 9, S) {
		t.Error("a new S fits behind the queued X")
	}
	e.removeWaiter(ws[2]) // the X gives up
	if n := e.admitted(); n != 3 {
		t.Fatalf("after the X left: admitted %d, want 3", n)
	}
	if !e.fits(len(e.queue), 9, S) {
		t.Error("a new S does not fit behind three admitted S waiters")
	}
}
