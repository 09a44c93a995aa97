package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serv"
)

// fakeServer accepts one connection on a fresh unix socket, completes
// the handshake and hands the connection to script. It returns the
// socket path; the listener and the script end with the test.
func fakeServer(t *testing.T, script func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "fake.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if serv.ReadHandshake(conn) != nil || serv.WriteHandshake(conn) != nil {
			return
		}
		script(conn, bufio.NewReader(conn))
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return sock
}

// dialFake dials a fake server; the client closes before the server's
// cleanup waits for its script.
func dialFake(t *testing.T, sock string) *Client {
	t.Helper()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A server that handshakes and then never answers: Ping gives up when
// its context does.
func TestPingHonorsContext(t *testing.T) {
	sock := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		io.Copy(io.Discard, br) //nolint:errcheck // reads until the client hangs up
	})
	c := dialFake(t, sock)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- c.Ping(ctx) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Ping = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Ping ignored its context: still waiting after 1s")
	}
}

// A server that answers every request: Ping and ServerStats succeed.
func TestPingAndServerStats(t *testing.T) {
	const stats = `{"Requests":2}`
	sock := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		var (
			hdr [8]byte
			buf []byte
			req serv.Request
		)
		for {
			payload, err := serv.ReadFrame(br, serv.DefaultMaxFrame, buf)
			if err != nil {
				return
			}
			buf = payload
			if serv.DecodeRequest(payload, &req) != nil {
				return
			}
			resp := serv.Response{ID: req.ID}
			if req.Op == serv.OpStats {
				resp.Stats = stats
			}
			out, err := serv.AppendResponse(nil, &resp)
			if err != nil || serv.WriteFrame(conn, &hdr, out) != nil {
				return
			}
		}
	})
	c := dialFake(t, sock)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	got, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if got != stats {
		t.Fatalf("ServerStats = %q, want %q", got, stats)
	}
}

// A server that hangs up halfway through its first response: every
// request in flight on the connection fails instead of waiting forever.
func TestPendingsFailWhenServerCloses(t *testing.T) {
	sock := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		payload, err := serv.ReadFrame(br, serv.DefaultMaxFrame, nil)
		if err != nil {
			return
		}
		var req serv.Request
		if serv.DecodeRequest(payload, &req) != nil {
			return
		}
		out, err := serv.AppendResponse(nil, &serv.Response{ID: req.ID})
		if err != nil {
			return
		}
		var hdr [8]byte
		var framed bytes.Buffer
		if serv.WriteFrame(&framed, &hdr, out) != nil {
			return
		}
		conn.Write(framed.Bytes()[:framed.Len()/2]) //nolint:errcheck // the peer sees a torn frame
	})
	c := dialFake(t, sock)
	ctx := context.Background()
	var pendings []*Pending
	for i := 0; i < 3; i++ {
		tx := NewTx()
		tx.Send(1, "deposit", int64(i))
		p, err := c.Start(ctx, tx)
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for i, p := range pendings {
		done := make(chan error, 1)
		go func() {
			_, err := p.Wait()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("pending %d succeeded on a connection the server closed", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending %d still waiting after the server closed", i)
		}
	}
}
