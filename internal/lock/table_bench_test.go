package lock

import "testing"

// ROADMAP experiment: with ResourceID a fixed-width numeric struct, the
// per-shard resource index can be an open-addressing table keyed by the
// hash the manager already computes for shard selection, instead of a
// map[ResourceID]*entry that re-hashes the 24-byte key with its own
// seed on every operation. This microbench decided the adoption: the
// open-addressing resTable (shard.go) is 2–3× faster than the map at
// every resident size, so it became the production index (numbers in
// EXPERIMENTS.md).
//
// The workload mirrors real shard traffic: a resident population of
// long-held entries, one hit on a resident entry per iteration (a warm
// reentrant Acquire), and one churn cycle (lookup-miss, insert,
// lookup-hit, delete — the lifecycle of a short transaction's lock on a
// fresh resource).

const churnSpan = 512

func benchKeys(resident int) (res []ResourceID, churn []ResourceID) {
	res = make([]ResourceID, max(resident, 1))
	for i := range res {
		res[i] = InstanceRes(uint64(i + 1))
	}
	churn = make([]ResourceID, churnSpan)
	for i := range churn {
		churn[i] = InstanceRes(uint64(1<<20 + i))
	}
	return res, churn
}

// BenchmarkShardTableOpenAddr scores the production resTable.
func BenchmarkShardTableOpenAddr(b *testing.B) {
	for _, resident := range []int{0, 16, 256, 4096} {
		b.Run(benchSize("resident", resident), func(b *testing.B) {
			res, churn := benchKeys(resident)
			var t resTable
			t.init(resident + 8)
			e := &entry{}
			for _, k := range res[:resident] {
				t.put(k, k.hash(), e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rk := res[i&(len(res)-1)]
				if resident > 0 && t.get(rk, rk.hash()) == nil {
					b.Fatal("resident entry lost")
				}
				ck := churn[i&(churnSpan-1)]
				ch := ck.hash()
				if t.get(ck, ch) == nil {
					t.put(ck, ch, e)
				}
				if t.get(ck, ch) == nil {
					b.Fatal("churn entry lost")
				}
				t.del(ck, ch)
			}
		})
	}
}

func benchSize(prefix string, n int) string {
	out := prefix + "-"
	if n == 0 {
		return out + "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return out + string(buf[i:])
}

// TestResTableBasics exercises the production table directly: collision
// chains, tombstone reuse, growth, and survival of a full churn sweep.
func TestResTableBasics(t *testing.T) {
	var tbl resTable
	tbl.init(8)
	e1 := &entry{}
	e2 := &entry{}
	keys := make([]ResourceID, 300)
	for i := range keys {
		keys[i] = TupleRes(uint32(i%7), uint64(i))
	}
	for i, k := range keys {
		v := e1
		if i%2 == 0 {
			v = e2
		}
		tbl.put(k, k.hash(), v)
	}
	for i, k := range keys {
		got := tbl.get(k, k.hash())
		want := e1
		if i%2 == 0 {
			want = e2
		}
		if got != want {
			t.Fatalf("key %d: got %p want %p", i, got, want)
		}
	}
	// Delete every third key, then verify presence/absence.
	for i := 0; i < len(keys); i += 3 {
		tbl.del(keys[i], keys[i].hash())
	}
	for i, k := range keys {
		got := tbl.get(k, k.hash())
		if i%3 == 0 {
			if got != nil {
				t.Fatalf("deleted key %d still present", i)
			}
			continue
		}
		if got == nil {
			t.Fatalf("key %d lost after neighbour deletions", i)
		}
	}
	// Churn through tombstones far beyond the table size: must not wedge,
	// and reusing a tombstone must reclaim it — acquire/release cycles on
	// one resource leave exactly one tombstone, not an ever-growing count
	// that forces spurious rehashes under the shard mutex.
	k := InstanceRes(9999)
	size := len(tbl.slots)
	dead0 := tbl.dead
	for i := 0; i < 10_000; i++ {
		tbl.put(k, k.hash(), e1)
		if tbl.get(k, k.hash()) != e1 {
			t.Fatal("churned key lost")
		}
		tbl.del(k, k.hash())
		// put must reclaim the tombstone del left on k's probe path:
		// otherwise dead climbs one per cycle and forces a full-table
		// rehash (under the shard mutex) every ~¾·len cycles.
		if tbl.dead > dead0+1 {
			t.Fatalf("tombstones leak under churn: dead=%d after %d cycles (started at %d)",
				tbl.dead, i+1, dead0)
		}
	}
	if tbl.get(k, k.hash()) != nil {
		t.Fatal("deleted churn key still present")
	}
	if len(tbl.slots) != size {
		t.Fatalf("single-key churn grew the table from %d to %d slots", size, len(tbl.slots))
	}
}
