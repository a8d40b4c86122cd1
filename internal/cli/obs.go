package cli

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"anondyn/internal/obs"
)

// ObsConfig carries the shared observability flags every anondyn binary
// accepts. With neither flag set, nothing is installed and the process runs
// with the nil (zero-cost) collector; either flag enables the process-wide
// collector so instrumented hot paths start recording.
type ObsConfig struct {
	// MetricsPath, when non-empty, is where Finish writes a JSON snapshot
	// of every counter, gauge, and histogram recorded during the run.
	MetricsPath string
	// PprofAddr, when non-empty, serves /debug/pprof/*, /debug/vars
	// (expvar), and a live /metrics JSON snapshot on that address for the
	// duration of the run.
	PprofAddr string

	col  *obs.Collector
	srv  *http.Server
	addr string
}

// Addr returns the debug server's actual listen address (resolving a :0
// port), or "" when no server is running.
func (o *ObsConfig) Addr() string {
	if o == nil {
		return ""
	}
	return o.addr
}

// ObsFlags registers the shared -metrics and -pprof flags on fs and returns
// the config they populate. Call Start after fs.Parse and defer Finish.
func ObsFlags(fs *flag.FlagSet) *ObsConfig {
	o := &ObsConfig{}
	fs.StringVar(&o.MetricsPath, "metrics", "", "write a JSON metrics snapshot to this `file` on exit")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve /debug/pprof, /debug/vars, and /metrics on this `addr` (e.g. localhost:6060)")
	return o
}

// Start installs the process-wide collector if either flag was given and
// brings up the debug HTTP server if -pprof was. A bad -pprof address is a
// usage error. With neither flag set it is a no-op.
func (o *ObsConfig) Start() error {
	if o == nil || (o.MetricsPath == "" && o.PprofAddr == "") {
		return nil
	}
	o.col = obs.Enable()
	if o.PprofAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", o.PprofAddr)
	if err != nil {
		return Usagef("-pprof: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", obs.Handler(o.col))
	o.addr = ln.Addr().String()
	o.srv = NewHTTPServer(mux)
	go func() { _ = o.srv.Serve(ln) }()
	return nil
}

// Finish tears down the debug server and writes the -metrics snapshot.
// It passes runErr through so commands can wrap their run body as
// `defer func() { err = obsCfg.Finish(err) }()`: the run's own error always
// wins, but a snapshot write failure surfaces on otherwise-successful runs
// rather than vanishing.
func (o *ObsConfig) Finish(runErr error) error {
	if o == nil {
		return runErr
	}
	if o.srv != nil {
		_ = o.srv.Close()
		o.srv = nil
	}
	if o.col != nil && o.MetricsPath != "" {
		if werr := o.col.WriteFile(o.MetricsPath); werr != nil && runErr == nil {
			return fmt.Errorf("cli: writing -metrics snapshot: %w", werr)
		}
	}
	return runErr
}
