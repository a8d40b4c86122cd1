package cli

import (
	"net/http"
	"testing"
)

// checkServerTimeouts asserts srv carries the shared connection timeouts
// and no write timeout, which would cut off streaming responses.
func checkServerTimeouts(t *testing.T, srv *http.Server) {
	t.Helper()
	if srv == nil {
		t.Fatal("no HTTP server")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: read-header %v, idle %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("write timeout %v, read timeout %v; want none", srv.WriteTimeout, srv.ReadTimeout)
	}
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	checkServerTimeouts(t, NewHTTPServer(http.NotFoundHandler()))
}
