// Package bridge hands the engine behind a public *oodb.Database to the
// internal packages that serve it (internal/serv), so they run on the
// engine's Value API without oodb exporting it. oodb's init sets Engine.
package bridge

import "repro/internal/engine"

// Engine returns the engine of db, which must be an *oodb.Database.
var Engine func(db any) *engine.DB
