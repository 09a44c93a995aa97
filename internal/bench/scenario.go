package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/paperex"
	"repro/internal/storage"
)

// The section 5.2 scenario:
//
//	T1 sends m1 to one instance i of c1                     (access i)
//	T2 sends m1 to the extension of class c1                (access ii)
//	T3 sends m3 to several instances of the domain of c1    (access iii)
//	T4 sends m4 to all instances of the domain of c2        (access iv)
//
// The paper concludes: under its protocol either T1∥T3∥T4 or T2∥T3∥T4;
// with read/write modes either T1∥T3 or T1∥T4; in the relational 1NF
// schema either T1∥T3 or T3∥T4 — and T1∥T3∥T4 relationally if m2 did
// not modify the key field f1.
const scenarioTxns = 4

// TxnNames labels the scenario transactions.
var TxnNames = []string{"T1", "T2", "T3", "T4"}

// Figure1NoKeyWrite is the section 5.2 variant: identical to Figure 1
// except that c1 declares a key field that no method modifies, so m2's
// write of f1 is no longer a key write in the 1NF decomposition.
const Figure1NoKeyWrite = `
class c1 is
    instance variables are
        k0 : integer
        f1 : integer
        f2 : boolean
        f3 : c3
    method m1(p1) is
        send m2(p1) to self
        send m3 to self
    end
    method m2(p1) is
        f1 := expr(f1, f2, p1)
    end
    method m3 is
        if f2 then
            send m to f3
        end
    end
end

class c2 inherits c1 is
    instance variables are
        f4 : integer
        f5 : integer
        f6 : string
    method m2(p1) is redefined as
        send c1.m2(p1) to self
        f4 := expr(f5, p1)
    end
    method m4(p1, p2) is
        if cond(f5, p1) then
            f6 := expr(f6, p2)
        end
    end
end

class c3 is
    instance variables are
        g1 : integer
    method m is
        g1 := g1 + 1
    end
end
`

// ScenarioResult is the analysed outcome for one strategy.
type ScenarioResult struct {
	Strategy    string
	LockSets    [scenarioTxns][]string
	Conflict    [scenarioTxns][scenarioTxns]bool
	MaximalSets []string // rendered, e.g. "T1,T3,T4"
}

// RunScenario records the lock set of each scenario transaction under
// the strategy and computes which transaction groups can coexist.
// With noKeyWrite the Figure1NoKeyWrite variant schema is used.
func RunScenario(strategy engine.Strategy, noKeyWrite bool) (*ScenarioResult, error) {
	src := paperex.Figure1
	if noKeyWrite {
		src = Figure1NoKeyWrite
	}
	compiled, err := core.CompileSource(src)
	if err != nil {
		return nil, err
	}
	db := engine.Open(compiled, strategy)

	// Population: i1..i3 proper c1 instances, j1..j2 proper c2 instances.
	var c1OIDs, c2OIDs []storage.OID
	boot := engine.NewRecorder() // creation locks are not part of the analysis
	bs := db.NewRecordingSession(boot)
	for i := 0; i < 3; i++ {
		in, err := bs.NewInstance("c1")
		if err != nil {
			return nil, err
		}
		c1OIDs = append(c1OIDs, in.OID)
	}
	for i := 0; i < 2; i++ {
		in, err := bs.NewInstance("c2")
		if err != nil {
			return nil, err
		}
		c2OIDs = append(c2OIDs, in.OID)
	}
	target := c1OIDs[0] // T1's instance i

	res := &ScenarioResult{Strategy: strategy.Name()}
	recs := [scenarioTxns]*engine.Recorder{}

	run := func(i int, fn func(rs *engine.RecordingSession) error) error {
		rec := engine.NewRecorder()
		if err := fn(db.NewRecordingSession(rec)); err != nil {
			return fmt.Errorf("%s under %s: %w", TxnNames[i], strategy.Name(), err)
		}
		recs[i] = rec
		for _, rl := range rec.Requests {
			res.LockSets[i] = append(res.LockSets[i], db.Runtime().ResourceLabel(rl.Res)+":"+rl.Mode.String())
		}
		return nil
	}

	arg := storage.IntV(7)
	if err := run(0, func(rs *engine.RecordingSession) error { // T1
		_, err := rs.Send(target, "m1", arg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := run(1, func(rs *engine.RecordingSession) error { // T2
		_, err := rs.DomainScan("c1", "m1", true, nil, arg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := run(2, func(rs *engine.RecordingSession) error { // T3
		_, err := rs.DomainScan("c1", "m3", false,
			func(in *storage.Instance) bool { return in.OID != target }, // not T1's instance
		)
		return err
	}); err != nil {
		return nil, err
	}
	if err := run(3, func(rs *engine.RecordingSession) error { // T4
		_, err := rs.DomainScan("c2", "m4", true, nil, arg, arg)
		return err
	}); err != nil {
		return nil, err
	}

	for i := 0; i < scenarioTxns; i++ {
		for j := 0; j < scenarioTxns; j++ {
			if i != j {
				res.Conflict[i][j] = recs[i].Conflicts(recs[j])
			}
		}
	}
	res.MaximalSets = maximalCompatibleSets(res.Conflict)
	return res, nil
}

// maximalCompatibleSets enumerates the maximal subsets of transactions
// that are pairwise compatible.
func maximalCompatibleSets(conflict [scenarioTxns][scenarioTxns]bool) []string {
	var compatible []int // bitmasks of pairwise-compatible subsets
	for mask := 1; mask < 1<<scenarioTxns; mask++ {
		ok := true
		for i := 0; ok && i < scenarioTxns; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < scenarioTxns; j++ {
				if mask&(1<<j) != 0 && conflict[i][j] {
					ok = false
					break
				}
			}
		}
		if ok {
			compatible = append(compatible, mask)
		}
	}
	var out []string
	for _, m := range compatible {
		maximal := true
		for _, m2 := range compatible {
			if m2 != m && m2&m == m {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		var names []string
		for i := 0; i < scenarioTxns; i++ {
			if m&(1<<i) != 0 {
				names = append(names, TxnNames[i])
			}
		}
		out = append(out, strings.Join(names, ","))
	}
	sort.Strings(out)
	return out
}
