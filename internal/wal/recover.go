package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/storage"
)

const (
	fingerprintName = "schema"
	fingerprintTmp  = "schema.tmp"
)

// schemaFingerprint hashes everything replay depends on — dense class
// ID order and each class's field layout — so a log directory refuses
// to open under a schema whose IDs or slots bind differently. Two
// classes with identical shapes swapped in declaration order would
// otherwise replay each other's instances without any type error.
func schemaFingerprint(sch *schema.Schema) string {
	var b strings.Builder
	for _, cls := range sch.Order {
		fmt.Fprintf(&b, "class %d %s\n", cls.ID, cls.Name)
		for _, p := range cls.Parents {
			fmt.Fprintf(&b, "  inherits %s\n", p.Name)
		}
		for i, f := range cls.Fields {
			fmt.Fprintf(&b, "  slot %d %s %s\n", i, f.QualifiedName(), f.Type)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// checkFingerprint verifies (or, on first open, records) the schema
// fingerprint of a log directory. The first write goes through a tmp
// file + rename: a torn or empty fingerprint after a crash would lock
// the database out of its own valid log forever.
func checkFingerprint(fsys FS, dir string, sch *schema.Schema) error {
	want := schemaFingerprint(sch)
	path := filepath.Join(dir, fingerprintName)
	data, err := fsys.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(data)); got != want {
			return fmt.Errorf("wal: %s was written under a different schema (fingerprint %s, this schema %s); refusing to replay", dir, got, want)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	tmp := filepath.Join(dir, fingerprintTmp)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(want + "\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// Open recovers the durable state in dir into st (which must be a fresh,
// empty store; the log keeps it for its checkpoints) and returns a
// running log ready to append. Recovery loads the newest intact
// checkpoint (falling back to checkpoint.prev when the primary is
// corrupt or half-renamed), replays every later segment in sequence
// order — partitioned by instance across GOMAXPROCS goroutines, one
// chunk of ops at a time, when a segment is large enough, since
// records touching different OIDs commute (replay.go) — and sorts the
// extents. Replay is not idempotent: ops on a missing OID are skipped,
// a create overwrites, a delta applies once. Ops may name OIDs up to
// the checkpoint's watermark plus what the replayed segments claim:
// their op counts and their leases (appendLease); the log appends
// under that budget.
// It truncates a torn tail off the final segment (a crash mid-batch
// leaves at most one incomplete record suffix, since every batch is
// written before any commit in it is acknowledged), and continues
// appending to that segment. A missing or empty directory is a fresh
// database. The log then owns st's durable epoch.
func Open(dir string, st *storage.Store, o Options) (*Log, RecoveryInfo, error) {
	o.normalize()
	fsys := o.FS
	if st.Count() != 0 || st.MaxOID() != 0 {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: Open needs an empty store")
	}
	sch := st.Schema()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, err
	}
	// Half-written tmp files from a crash mid-checkpoint / mid-first-open.
	fsys.Remove(filepath.Join(dir, checkpointTmp))  //nolint:errcheck
	fsys.Remove(filepath.Join(dir, fingerprintTmp)) //nolint:errcheck
	if err := checkFingerprint(fsys, dir, sch); err != nil {
		return nil, RecoveryInfo{}, err
	}

	var info RecoveryInfo
	base, fellBack, err := loadCheckpoint(fsys, dir, st, sch)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info.Checkpoint = base != checkpointSeq0
	info.CheckpointSeq = base
	info.CheckpointFallback = fellBack

	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	r := newReplayer(st, sch, runtime.GOMAXPROCS(0))
	last := base // highest segment seen; the log appends to (or after) it
	for i, seq := range seqs {
		if seq <= base {
			// Dead segment: retained as the replay tail of
			// checkpoint.prev (or one a crash prevented Checkpoint from
			// deleting). The next Checkpoint culls everything the
			// fallback chain can no longer need.
			continue
		}
		if seq != last+1 {
			return nil, RecoveryInfo{}, fmt.Errorf("wal: segment gap: %d follows %d", seq, last)
		}
		path := segmentPath(dir, seq)
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		records, tornAt, err := r.segment(data)
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("wal: %s %w", path, err)
		}
		if tornAt >= 0 {
			if i != len(seqs)-1 {
				return nil, RecoveryInfo{}, fmt.Errorf("wal: sealed segment %d has a torn record", seq)
			}
			if err := truncateSegment(fsys, path, tornAt); err != nil {
				return nil, RecoveryInfo{}, err
			}
			info.TornTailBytes = int64(len(data)) - tornAt
		}
		info.Segments++
		info.Records += int64(records)
		last = seq
	}
	st.SortExtents()

	l := &Log{dir: dir, st: st, opts: o, fs: fsys, leased: r.maxOID}
	if last == base {
		// Fresh directory (or checkpoint with no tail): start a segment.
		l.seq = base + 1
		f, err := fsys.OpenFile(segmentPath(dir, l.seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		if err := fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, RecoveryInfo{}, err
		}
		l.f = f
	} else {
		l.seq = last
		f, err := fsys.OpenFile(segmentPath(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, RecoveryInfo{}, err
		}
		l.f = f
		l.size = fi.Size()
	}
	st.SetDurableEpoch(st.StableEpoch())
	l.start()
	return l, info, nil
}

// listSegments returns the segment sequences present in dir, ascending.
func listSegments(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		// Sscanf tolerates trailing characters, so round-trip the name:
		// "wal-000001.log.bak" must not count as segment 1.
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n != 1 {
			continue
		}
		if filepath.Base(segmentPath(dir, seq)) != e.Name() {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// truncateSegment drops the torn suffix so the log can append cleanly.
func truncateSegment(fsys FS, path string, validEnd int64) error {
	if err := fsys.Truncate(path, validEnd); err != nil {
		return err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
