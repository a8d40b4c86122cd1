// Command sweep runs an experiment campaign on the sharded worker pool:
// it expands a declarative spec (protocol × size grid × trials × seed) into
// independent jobs, executes them with work stealing and per-job
// deterministic seeds, streams every completed job to an append-only JSONL
// journal, and prints the aggregated per-size distributions. A killed
// campaign restarts with -resume and recomputes only the missing jobs; the
// aggregated output is byte-identical to an uninterrupted run.
//
// Usage:
//
//	sweep -spec figures|smoke|path.json [-workers N] [-out sweep.jsonl]
//	      [-resume] [-retries N] [-maxjobs N] [-csv] [-timeout 1m]
//	      [-metrics metrics.json] [-pprof localhost:6060]
//	sweep serve [-addr 127.0.0.1:8080] [-datadir sweepd] [-max-campaigns N]
//	      [-workers N] [-retries N] [-addrfile path] [-timeout 1m]
//	      [-metrics metrics.json] [-pprof localhost:6060]
//
// Results go to stdout; progress and campaign accounting go to stderr, so
// stdout can be diffed across runs. Exit codes: 0 success, 1 usage error,
// 2 runtime failure (including an interrupted campaign — whose journal is
// nevertheless durable and resumable).
//
// "sweep serve" runs the campaign service (internal/sweep/daemon): campaigns
// are submitted over HTTP, queued durably under -datadir, and survive a
// daemon kill — the next serve on the same -datadir resumes every unfinished
// campaign from its journal. -addrfile writes the bound address (useful with
// -addr :0) for scripts and kill/restart drills.
//
// -metrics writes a JSON snapshot of the run's counters and histograms
// (jobs executed, retries, queue depth, per-job and per-solver-round wall
// time, journal append+fsync latency) on exit; -pprof serves live
// /debug/pprof, /debug/vars, and /metrics on the given address. Without
// either flag the instrumentation is disabled and costs nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"

	"anondyn/internal/cli"
	"anondyn/internal/obs"
	"anondyn/internal/sweep"
	"anondyn/internal/sweep/daemon"
)

func main() {
	cli.Main("sweep", run)
}

// newHTTPServer builds the serve subcommand's server. It is a variable so
// tests can inspect the server serve actually runs.
var newHTTPServer = cli.NewHTTPServer

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	if len(args) > 0 && args[0] == "serve" {
		return serve(ctx, args[1:])
	}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	specArg := fs.String("spec", "", "campaign spec: a built-in name (figures, smoke), a built-in set (zoo, zoo-smoke), or a JSON file path")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	out_ := fs.String("out", "sweep.jsonl", "journal path (JSONL, one completed job per line)")
	resume := fs.Bool("resume", false, "resume from the journal instead of truncating it")
	retries := fs.Int("retries", 1, "re-attempts per job after an execution fault")
	maxJobs := fs.Int("maxjobs", 0, "stop after executing this many jobs (0 = no limit); for resume drills")
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	timeout := fs.Duration("timeout", 0, "abort the campaign after this duration (0 = no limit)")
	obsCfg := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *specArg == "" {
		return cli.Usagef("missing -spec (built-in campaigns: figures, smoke; sets: zoo, zoo-smoke)")
	}
	if *workers < 1 {
		return cli.Usagef("need -workers >= 1, got %d", *workers)
	}
	if *retries < 0 {
		return cli.Usagef("need -retries >= 0, got %d", *retries)
	}
	if *maxJobs < 0 {
		return cli.Usagef("need -maxjobs >= 0 (0 = no limit), got %d", *maxJobs)
	}
	specs, ok := sweep.BuiltinSet(*specArg)
	if !ok {
		spec, err := sweep.LoadSpec(*specArg)
		if err != nil {
			return cli.WrapUsage(err)
		}
		specs = []sweep.Spec{spec}
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}
	defer func() { err = obsCfg.Finish(err) }()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	// A set's campaigns share one journal: job keys embed the protocol, so
	// the rows never collide, and campaigns after the first always open in
	// resume mode to append rather than truncate.
	var all []sweep.Result
	for i, spec := range specs {
		rep, err := sweep.RunCampaign(ctx, spec, sweep.CampaignOptions{
			Workers:     *workers,
			MaxRetries:  *retries,
			MaxJobs:     *maxJobs,
			JournalPath: *out_,
			Resume:      *resume || i > 0,
		})
		if rep != nil {
			fmt.Fprintf(os.Stderr, "sweep: campaign %s: %d jobs executed, %d resumed from %s\n",
				spec.Name, rep.Executed, rep.Resumed, *out_)
		}
		if err != nil {
			if rep != nil {
				fmt.Fprintf(os.Stderr, "sweep: interrupted; completed jobs are journaled — rerun with -resume to finish\n")
			}
			return err
		}
		all = append(all, rep.Results...)
	}
	stats := sweep.Aggregate(all)
	if *csv {
		_, err = io.WriteString(out, sweep.FormatCSV(stats))
	} else {
		_, err = io.WriteString(out, sweep.FormatTable(stats))
	}
	return err
}

// serve runs the long-lived campaign service. It owns no stdout: the API is
// the interface, stderr carries the lifecycle log, and -addrfile publishes
// the bound address for scripts that started it with -addr :0.
func serve(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("sweep serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen `address` (port 0 picks a free port)")
	datadir := fs.String("datadir", "sweepd", "data `directory` holding the durable campaign queue and journals")
	maxCampaigns := fs.Int("max-campaigns", 2, "campaigns running concurrently; further submissions queue")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "default per-campaign worker-pool size")
	retries := fs.Int("retries", 1, "default re-attempts per job after an execution fault")
	addrFile := fs.String("addrfile", "", "write the bound address to this `file` once listening")
	timeout := fs.Duration("timeout", 0, "shut down after this duration (0 = run until interrupted)")
	obsCfg := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("serve takes no positional arguments, got %q", fs.Args())
	}
	if *maxCampaigns < 1 {
		return cli.Usagef("need -max-campaigns >= 1, got %d", *maxCampaigns)
	}
	if *workers < 1 {
		return cli.Usagef("need -workers >= 1, got %d", *workers)
	}
	if *retries < 0 {
		return cli.Usagef("need -retries >= 0, got %d", *retries)
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}
	defer func() { err = obsCfg.Finish(err) }()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	srv, err := daemon.New(daemon.Config{
		Dir:          *datadir,
		MaxCampaigns: *maxCampaigns,
		Workers:      *workers,
		Retries:      *retries,
		Obs:          obs.Global(), // nil without -metrics/-pprof; daemon then self-collects
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = srv.Close()
		return cli.Usagef("-addr: %v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if werr := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); werr != nil {
			_ = ln.Close()
			_ = srv.Close()
			return fmt.Errorf("sweep: write -addrfile: %w", werr)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: serving campaigns on http://%s (datadir %s, %d slots)\n",
		bound, *datadir, *maxCampaigns)

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Interrupt or -timeout: the graceful spelling of a kill. Stop
		// accepting, unwind the runners, and leave unfinished campaigns
		// durably "running" — the next serve on this datadir resumes them.
		_ = hs.Close()
		_ = srv.Close()
		<-serveErr
		fmt.Fprintln(os.Stderr, "sweep: shut down; unfinished campaigns resume on the next serve")
		return nil
	case herr := <-serveErr:
		_ = srv.Close()
		return fmt.Errorf("sweep: serve: %w", herr)
	}
}
