package transport

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"zaatar/internal/obs"
)

// eofAfter ends a connection's read side after n bytes, as a peer that
// half-closes after its last write would, so the service sees EOF rather
// than waiting out its deadlines.
type eofAfter struct {
	net.Conn
	n int
}

func (c *eofAfter) Read(p []byte) (int, error) {
	if c.n <= 0 {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p[:min(len(p), c.n)])
	c.n -= n
	return n, err
}

// FuzzServeHello writes arbitrary bytes as the client side of a net.Pipe
// into Service.ServeConn. The service must return within a second without
// panicking, and every ack it writes is either an error ack or an ack for a
// valid v3 hello.
func FuzzServeHello(f *testing.F) {
	sum := sha256.Sum256([]byte(sessionSrc))
	for _, h := range []Hello{
		{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true, Version: MaxProtocolVersion},
		{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true},
		{SourceHash: sum[:], Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true, Version: MaxProtocolVersion},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	svc := NewService(ServiceOptions{
		Workers:     1,
		IOTimeout:   100 * time.Millisecond,
		IdleTimeout: 100 * time.Millisecond,
		Obs:         obs.NewRegistry(),
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = svc.ServeConn(context.Background(), &eofAfter{Conn: server, n: len(data)})
		}()
		go func() { _, _ = client.Write(data) }()
		acks := make(chan []HelloAck, 1)
		go func() {
			var got []HelloAck
			dec := gob.NewDecoder(client)
			for {
				var ack HelloAck
				if dec.Decode(&ack) != nil {
					acks <- got
					return
				}
				got = append(got, ack)
			}
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("ServeConn did not return within 1s")
		}
		client.Close()
		got := <-acks
		if len(got) == 0 {
			return
		}
		// The server decoded the same stream: a hello it did not refuse must
		// be a valid v3 hello.
		var h Hello
		herr := gob.NewDecoder(bytes.NewReader(data)).Decode(&h)
		for _, ack := range got {
			if ack.Version != MaxProtocolVersion {
				t.Fatalf("ack stamped v%d: %+v", ack.Version, ack)
			}
			if ack.Err != "" {
				continue
			}
			if herr != nil {
				t.Fatalf("success ack %+v for an undecodable hello: %v", ack, herr)
			}
			if err := h.validate(0); err != nil {
				t.Fatalf("success ack %+v for an invalid hello: %v", ack, err)
			}
		}
	})
}
