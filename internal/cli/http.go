package cli

import (
	"net/http"
	"time"
)

// Connection timeouts shared by every HTTP server the binaries run (the
// -pprof debug server and "sweep serve"). There is deliberately no write
// timeout: "sweep serve" streams JSONL for as long as a campaign runs, and
// /debug/pprof/profile writes for 30 s by default.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a stalled or slow-drip connection cannot hold a
	// server goroutine forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections that sit idle between
	// requests.
	idleTimeout = 2 * time.Minute
)

// NewHTTPServer returns a server for h with the shared connection
// timeouts set.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
