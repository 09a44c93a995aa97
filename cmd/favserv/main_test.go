package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/serv"
	"repro/oodb"
)

// A second favserv on a relative socket path must find the live server
// and leave its socket alone. A bare name has no "/", so the probe has to
// say it means a unix socket or it dials TCP, fails, and removes the
// live server's socket file.
func TestServeRefusesLiveRelativeSocket(t *testing.T) {
	t.Chdir(t.TempDir())
	const sock = "fav.sock"

	schema, err := oodb.Compile(`
class c is
    instance variables are
        n : integer
end`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := oodb.Open(schema, oodb.Fine)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	live, err := serv.Listen(db, "unix", sock, serv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	err = serve("", sock, "banking", "fine", "", 0, 0, "always", 0, false, false, true, nil)
	if err == nil || !strings.Contains(err.Error(), "already has a live server") {
		t.Fatalf("second serve on a live socket: err = %v, want the live-server refusal", err)
	}
	if _, err := os.Stat(sock); err != nil {
		t.Fatalf("live server's socket file is gone: %v", err)
	}
}
