package oodb

import "repro/internal/wal"

// OpenOnFS is OpenWith with fs standing under the redo log: the seam
// external tests use to serve a database from a hostile disk.
func OpenOnFS(s *Schema, strategy Strategy, o Options, fs wal.FS) (*Database, error) {
	o.fs = fs
	return OpenWith(s, strategy, o)
}
