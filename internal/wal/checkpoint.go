package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

// A checkpoint is the live store serialized as of one commit epoch e,
// read through the version chains (storage/version.go) while writers
// run on. Commits draw and retire epochs in log order under seqMu;
// holding it, Checkpoint seals the segment and begins its snapshot at
// e, the last epoch drawn, before the durable epoch (and so the
// reclamation watermark) can pass e. Every sealed record is a commit
// ≤ e and every later one a commit > e: each applies exactly once, as
// OpDeltaI requires. Commits pause only for the seal. A delete that
// commits after e may remove its instance before it is serialized;
// Checkpoint hardens the tail before it installs the file, so the delete
// is durably in the tail, and replay skips ops on a missing OID (applyOp).
//
// Checkpoint file, little-endian:
//
//	magic "FAVWCKP3" · u64 baseSeq · u64 nextOID · u64 count ·
//	count × image · u32 CRC-32C (codec.Checksum) of everything after
//	the magic
//
// where an image is the body of an OpCreate op (record.go), and nextOID
// is the OID watermark the writer takes at the seal (sealWatermark): the
// lower of the store's allocation watermark and the replay budget the
// log has covered. Every checkpointed OID lies at or below both, and
// replay from checkpoint.prev or the first segment reaches at least
// that budget by the seal, so a fallback never meets a record the
// primary's budget admits and its own does not. Earlier
// layouts ("FAVWCKP1", and "FAVWCKP2", which also held a commit epoch)
// are refused by name: their records cannot be replayed either, so
// falling back past them could only open a partial state.
//
// The file is written to checkpoint.tmp, fsynced, and renamed over
// checkpoint — after the old checkpoint was demoted to checkpoint.prev —
// then the directory is fsynced. A crash at any point leaves an intact
// checkpoint under one of the two names. The whole-file CRC is verified
// on every load: a corrupt (bit-flipped, truncated) primary makes
// recovery fall back to checkpoint.prev plus the log segments it still
// needs, which is why Checkpoint only deletes segments at or below the
// *previous* base — one full fallback generation is always retained.
const (
	checkpointName = "checkpoint"
	checkpointPrev = "checkpoint.prev"
	checkpointTmp  = "checkpoint.tmp"
	checkpointSeq0 = uint64(0) // "no checkpoint": replay every segment
)

// checkpointMagic is the current layout's magic; a file that starts
// with checkpointFamily and differs in the version byte was written by
// another layout.
var (
	checkpointMagic  = []byte("FAVWCKP3")
	checkpointFamily = checkpointMagic[:len(checkpointMagic)-1]
)

// errCheckpointCorrupt classifies damage the CRC trailer (or frame
// structure around it) detects — the cases recovery can survive by
// falling back, as opposed to I/O errors or semantic mismatches.
var errCheckpointCorrupt = errors.New("wal: corrupt checkpoint")

// checkpointBody serializes every instance of st visible at epoch at
// (the caller holds a snapshot there), with OID watermark nextOID and
// base segment sequence baseSeq: the checkpoint file between its magic
// and its CRC.
func checkpointBody(st *storage.Store, at uint64, nextOID storage.OID, baseSeq uint64) []byte {
	body := make([]byte, 0, 1<<16)
	body = binary.LittleEndian.AppendUint64(body, baseSeq)
	body = binary.LittleEndian.AppendUint64(body, uint64(nextOID))
	count := uint64(0)
	countAt := len(body)
	body = binary.LittleEndian.AppendUint64(body, 0) // patched below
	var vals []storage.Value
	for _, cls := range st.Schema().Order {
		for _, oid := range st.ExtentOf(cls) {
			// Visibility at a fixed epoch is stable: check it once.
			in, ok := st.Get(oid)
			if !ok || !in.SnapshotVisible(at, 0) {
				continue
			}
			vals = vals[:0]
			for i := range cls.NumSlots() {
				v, _ := in.SnapshotGet(i, at)
				vals = append(vals, v)
			}
			body = appendImage(body, cls.ID, uint64(oid), vals)
			count++
		}
	}
	binary.LittleEndian.PutUint64(body[countAt:], count)
	return body
}

// writeCheckpoint installs body as the primary checkpoint. demoteOld
// keeps the current primary as checkpoint.prev; when the caller found
// the primary corrupt it passes false so the garbage is dropped instead
// of clobbering the intact .prev the fallback chain relies on.
func writeCheckpoint(fsys FS, dir string, body []byte, demoteOld bool) error {
	tmp := filepath.Join(dir, checkpointTmp)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp) //nolint:errcheck // no-op after the rename succeeds
	crc := codec.Checksum(body)
	if _, err := f.Write(checkpointMagic); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint32(nil, crc)); err != nil {
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
	primary := filepath.Join(dir, checkpointName)
	if demoteOld {
		if err := fsys.Rename(primary, filepath.Join(dir, checkpointPrev)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	} else {
		fsys.Remove(primary) //nolint:errcheck // corrupt primary; .prev stays the fallback
	}
	if err := fsys.Rename(tmp, primary); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// loadCheckpoint applies the newest intact checkpoint into st and
// returns its base segment sequence (checkpointSeq0 when none exists).
// fellBack reports that the primary was missing or corrupt and recovery
// used checkpoint.prev — or, before any second checkpoint existed, a
// full log replay from the first segment. A nil st only verifies: the
// chosen file's CRC and header are checked and nothing is installed.
func loadCheckpoint(fsys FS, dir string, st *storage.Store, sch *schema.Schema) (base uint64, fellBack bool, err error) {
	base, err = loadCheckpointFile(fsys, filepath.Join(dir, checkpointName), st, sch)
	switch {
	case err == nil:
		return base, false, nil
	case errors.Is(err, os.ErrNotExist):
		// No primary. A .prev without a primary is the crash window of
		// writeCheckpoint between demote and rename — .prev is intact
		// and its replay tail is still on disk.
		base, err = loadCheckpointFile(fsys, filepath.Join(dir, checkpointPrev), st, sch)
		if errors.Is(err, os.ErrNotExist) {
			return checkpointSeq0, false, nil // fresh directory
		}
		if err != nil {
			return 0, false, err
		}
		return base, true, nil
	case errors.Is(err, errCheckpointCorrupt):
		base, err = loadCheckpointFile(fsys, filepath.Join(dir, checkpointPrev), st, sch)
		if errors.Is(err, os.ErrNotExist) {
			// Corrupt primary, no .prev: only the first checkpoint ever
			// taken can be in this state, and it deleted no segments —
			// a full replay from the first segment reproduces it.
			return checkpointSeq0, true, nil
		}
		if err != nil {
			return 0, false, err
		}
		return base, true, nil
	default:
		return 0, false, err
	}
}

// loadCheckpointFile applies one checkpoint file into st (nil: verify
// only). Corruption the CRC trailer detects is errCheckpointCorrupt —
// detected before anything is installed, so the caller may fall back.
// Another layout's magic and semantic errors past a valid CRC (unknown
// class, OID watermark, slot arity) stay hard failures: they mean an
// older build, a writer bug or a foreign file, not disk damage.
func loadCheckpointFile(fsys FS, path string, st *storage.Store, sch *schema.Schema) (uint64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) >= len(checkpointMagic) && bytes.HasPrefix(data, checkpointFamily) && !bytes.HasPrefix(data, checkpointMagic) {
		return 0, fmt.Errorf("wal: %s: checkpoint format %q, this build reads %q", path, data[:len(checkpointMagic)], checkpointMagic)
	}
	if len(data) < len(checkpointMagic)+4 || !bytes.HasPrefix(data, checkpointMagic) {
		return 0, fmt.Errorf("%w: %s: bad magic", errCheckpointCorrupt, path)
	}
	body := data[len(checkpointMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if codec.Checksum(body) != wantCRC {
		return 0, fmt.Errorf("%w: %s: CRC mismatch", errCheckpointCorrupt, path)
	}
	d := codec.NewDecoder(body)
	baseSeq := d.U64()
	if st == nil {
		return baseSeq, d.Err()
	}
	nextOID := d.U64()
	count := d.U64()
	// One slot buffer for every image: Install copies the cells out, and
	// the decoder copies strings out of data.
	var in RecordOp
	for i := uint64(0); i < count && d.Err() == nil; i++ {
		decodeImage(&d, &in, true)
		if d.Err() != nil {
			break
		}
		cls := sch.ClassByID(in.Class)
		if cls == nil {
			return 0, fmt.Errorf("wal: checkpoint: unknown class id %d", in.Class)
		}
		// Every checkpointed OID is at or below the watermark; an
		// instance above it is corruption, and installing it would size
		// the dense page directory to match.
		if in.OID == 0 || uint64(in.OID) > nextOID {
			return 0, fmt.Errorf("wal: checkpoint: instance OID %d outside (0, %d]", in.OID, nextOID)
		}
		if len(in.Slots) != cls.NumSlots() {
			return 0, fmt.Errorf("wal: checkpoint: %s#%d has %d slots, file says %d",
				cls.Name, in.OID, cls.NumSlots(), len(in.Slots))
		}
		if _, err := st.Install(cls, in.OID, in.Slots); err != nil {
			return 0, fmt.Errorf("wal: checkpoint: %w", err)
		}
	}
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	st.EnsureOID(storage.OID(nextOID))
	return baseSeq, nil
}

// Checkpoint compacts the log. Holding the sequencing mutex, it drains
// and hardens the queue (outstanding futures resolve), seals the live
// segment and begins a snapshot at the last epoch drawn; then it
// serializes the store at that epoch while commits run into the new
// segment, and hardens that segment before it installs the file. The
// old primary is demoted to checkpoint.prev if its CRC verifies,
// dropped otherwise, and only segments at or below the demoted
// checkpoint's base go.
func (l *Log) Checkpoint() error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	var snap storage.SnapshotReader
	c := l.barrier(true)
	l.seqMu.Lock()
	l.submitCh <- c
	err := <-c.done
	sealed, nextOID := c.sealed, c.nextOID
	c.discard()
	at := l.st.BeginSnapshot(&snap) // every epoch drawn is retired under seqMu
	l.seqMu.Unlock()
	defer l.st.EndSnapshot(&snap)
	if err != nil {
		return err
	}

	base, fellBack, err := loadCheckpoint(l.fs, l.dir, nil, l.st.Schema())
	if err != nil {
		return err
	}
	body := checkpointBody(l.st, at, nextOID, sealed)
	// A pipelined delete after the cut may have removed an instance
	// before its record was fsynced; the record was enqueued first, so
	// this barrier makes it durable before the file omits the instance.
	if err := l.Sync(nil); err != nil {
		return err
	}
	if err := writeCheckpoint(l.fs, l.dir, body, !fellBack); err != nil {
		return err
	}
	l.checkpoints.Add(1)
	// The checkpoint just demoted has base `base`: it needs segments
	// (base, sealed] to replay, so only older ones are dead under every
	// fallback. Sweep the directory rather than a range — earlier
	// generations a crash kept alive get culled here too.
	if seqs, err := listSegments(l.fs, l.dir); err == nil {
		for _, seq := range seqs {
			if seq <= base {
				l.fs.Remove(segmentPath(l.dir, seq)) //nolint:errcheck // best-effort compaction
			}
		}
	}
	return nil
}
