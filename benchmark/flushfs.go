package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wal"
)

// flushFS is a wal.FS over the real filesystem that records, for every
// file, how many bytes have been written and how many of them had been
// written when the file was last fsynced. Killing a process leaves the
// operating system's cache intact, so "acknowledged implies durable"
// can only be tested by discarding what was never flushed: CrashImage
// copies each file cut to its last-fsynced length, which is what a
// power loss at that instant would have left.
//
// Directory operations (create, rename, remove) are treated as durable
// at once; the log fsyncs the directory after each of them anyway.
type flushFS struct {
	mu    sync.Mutex
	files map[string]*fileState // by cleaned path
}

type fileState struct {
	written int64 // current length
	synced  int64 // length at the last Sync
}

func newFlushFS() *flushFS { return &flushFS{files: make(map[string]*fileState)} }

type flushFile struct {
	f  *os.File
	fs *flushFS
	st *fileState
}

func (fs *flushFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	name = filepath.Clean(name)
	fs.mu.Lock()
	st := fs.files[name]
	if st == nil {
		// A file that was there before this FS saw it is taken as
		// flushed: the benchmark starts from empty directories.
		st = &fileState{written: fi.Size(), synced: fi.Size()}
		fs.files[name] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.written, st.synced = 0, 0
	}
	fs.mu.Unlock()
	return &flushFile{f: f, fs: fs, st: st}, nil
}

func (f *flushFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.fs.mu.Lock()
	f.st.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *flushFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(p, off)
	f.fs.mu.Lock()
	if end := off + int64(n); end > f.st.written {
		f.st.written = end
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *flushFile) Sync() error {
	f.fs.mu.Lock()
	upto := f.st.written
	f.fs.mu.Unlock()
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if upto > f.st.synced {
		f.st.synced = upto
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *flushFile) Truncate(size int64) error {
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.st.truncate(size)
	f.fs.mu.Unlock()
	return nil
}

func (st *fileState) truncate(size int64) {
	st.written = size
	if st.synced > size {
		st.synced = size
	}
}

func (f *flushFile) Close() error               { return f.f.Close() }
func (f *flushFile) Stat() (os.FileInfo, error) { return f.f.Stat() }

func (fs *flushFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	fs.mu.Lock()
	if st, ok := fs.files[oldpath]; ok {
		fs.files[newpath] = st
		delete(fs.files, oldpath)
	}
	fs.mu.Unlock()
	return nil
}

func (fs *flushFS) Remove(name string) error {
	err := os.Remove(name)
	fs.mu.Lock()
	delete(fs.files, filepath.Clean(name))
	fs.mu.Unlock()
	return err
}

func (fs *flushFS) Truncate(name string, size int64) error {
	if err := os.Truncate(name, size); err != nil {
		return err
	}
	fs.mu.Lock()
	if st, ok := fs.files[filepath.Clean(name)]; ok {
		st.truncate(size)
	}
	fs.mu.Unlock()
	return nil
}

func (fs *flushFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (fs *flushFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (fs *flushFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (fs *flushFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Totals returns the bytes written and the bytes flushed over the files
// currently tracked.
func (fs *flushFS) Totals() (written, synced int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, st := range fs.files {
		written += st.written
		synced += st.synced
	}
	return written, synced
}

// CrashImage copies every tracked file under srcDir into dstDir, cut to
// its last-fsynced length, and returns the bytes kept and the bytes
// dropped. The lengths are read under the lock in one pass, so the image
// is a state the disk held at one instant; the log is append-only, so
// the bytes below a flushed length no longer change while they are
// copied.
func (fs *flushFS) CrashImage(srcDir, dstDir string) (kept, dropped int64, err error) {
	srcDir = filepath.Clean(srcDir)
	type cut struct {
		name   string
		synced int64
	}
	var cuts []cut
	fs.mu.Lock()
	for name, st := range fs.files {
		if filepath.Dir(name) != srcDir {
			continue
		}
		cuts = append(cuts, cut{filepath.Base(name), st.synced})
		kept += st.synced
		dropped += st.written - st.synced
	}
	fs.mu.Unlock()
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return 0, 0, err
	}
	for _, c := range cuts {
		if err := copyPrefix(filepath.Join(srcDir, c.name), filepath.Join(dstDir, c.name), c.synced); err != nil {
			return 0, 0, fmt.Errorf("crash image: %w", err)
		}
	}
	return kept, dropped, nil
}

// copyPrefix copies the first n bytes of src to dst (all of it when n
// is negative).
func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	copied, err := io.Copy(out, r)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil && n >= 0 && copied != n {
		err = fmt.Errorf("%s: copied %d of %d flushed bytes", src, copied, n)
	}
	return err
}

// copyDir copies the regular files of src into a fresh dst, so each
// timed recovery opens an identical image.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyPrefix(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()), -1); err != nil {
			return err
		}
	}
	return nil
}

// checkAckedDurable is the durability check of the restart workload:
// a worker's private counter, read back from a recovered crash image,
// must cover every transaction acknowledged to that worker before the
// cut and cannot exceed the transactions it had started.
func checkAckedDurable(worker int, recovered, acked, started int64) error {
	if recovered < acked {
		return fmt.Errorf("worker %d: %d transactions were acknowledged but only %d survived the crash image: %d acks lost",
			worker, acked, recovered, acked-recovered)
	}
	if recovered > started {
		return fmt.Errorf("worker %d: recovered %d transactions but only %d were started", worker, recovered, started)
	}
	return nil
}
