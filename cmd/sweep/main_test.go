package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anondyn/internal/cli"
	"anondyn/internal/obs"
	"anondyn/internal/sweep"
	"anondyn/internal/sweep/daemon"
)

func TestRunSmokeCampaign(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-spec", "smoke", "-workers", "2", "-out", journal}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "mdbl-count") || !strings.Contains(out, "proto") {
		t.Fatalf("missing table:\n%s", out)
	}
	done, err := sweep.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 8 { // smoke = 2 sizes × 4 trials
		t.Fatalf("journal holds %d rows, want 8", len(done))
	}
}

// A built-in set runs every member campaign into one shared journal and
// prints one combined table.
func TestRunZooSmokeSet(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "zoo.jsonl")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-spec", "zoo-smoke", "-workers", "2", "-out", journal}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, proto := range []string{
		"zoo-histtree", "zoo-idcount", "zoo-incremental", "zoo-leaderstate", "zoo-upperbound",
		"zoo-degreeoracle", "zoo-tinterval", "zoo-joinleave", "zoo-randomized",
	} {
		if !strings.Contains(out, proto) {
			t.Fatalf("combined table missing %s:\n%s", proto, out)
		}
	}
	done, err := sweep.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 18 { // 9 campaigns × 2 sizes × 1 trial
		t.Fatalf("shared journal holds %d rows, want 18", len(done))
	}
}

// The CLI resume drill: interrupt with -maxjobs (exit code 2), resume, and
// require stdout byte-identical to an uninterrupted campaign.
func TestRunForcedResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()

	var full strings.Builder
	if err := run(context.Background(), []string{"-spec", "smoke", "-workers", "2", "-out", filepath.Join(dir, "full.jsonl")}, &full); err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(dir, "j.jsonl")
	var interrupted strings.Builder
	err := run(context.Background(), []string{"-spec", "smoke", "-workers", "2", "-maxjobs", "3", "-out", journal}, &interrupted)
	if !errors.Is(err, sweep.ErrJobLimit) {
		t.Fatalf("want ErrJobLimit, got %v", err)
	}
	if cli.ExitCode(err) != cli.ExitRuntime {
		t.Fatalf("interrupted campaign must exit %d, got %d", cli.ExitRuntime, cli.ExitCode(err))
	}
	if interrupted.Len() != 0 {
		t.Fatalf("interrupted run wrote to stdout:\n%s", interrupted.String())
	}

	var resumed strings.Builder
	if err := run(context.Background(), []string{"-spec", "smoke", "-workers", "2", "-resume", "-out", journal}, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Fatalf("resumed output differs:\n%s\nvs\n%s", resumed.String(), full.String())
	}
}

func TestRunSpecFileAndCSV(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	specJSON := `{"name":"tiny","proto":"mdbl-count","sizes":[5],"trials":2,"horizon":6,"seed":3}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-spec", specPath, "-csv", "-out", filepath.Join(dir, "j.jsonl")}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "proto,n,trials,") {
		t.Fatalf("missing CSV header:\n%s", sb.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                   // missing -spec
		{"-spec", "no-such-spec"},            // unknown spec
		{"-spec", "smoke", "-workers", "0"},  // bad workers
		{"-spec", "smoke", "-workers", "-3"}, // negative workers
		{"-spec", "smoke", "-retries", "-1"}, // negative retries
		{"-spec", "smoke", "-maxjobs", "-1"}, // negative maxjobs
		{"-nope"},                            // bad flag
	} {
		err := run(context.Background(), args, &strings.Builder{})
		if cli.ExitCode(err) != cli.ExitUsage {
			t.Fatalf("args %v: want usage error, got %v", args, err)
		}
	}
}

// The -metrics acceptance check: a smoke campaign's snapshot must carry a
// nonzero jobs/sec rate, journal append+fsync latency, and the per-round
// solver wall-time histogram.
func TestRunMetricsSnapshot(t *testing.T) {
	// -metrics installs a process-wide collector; detach it so later tests
	// in this package run unobserved again.
	defer obs.Set(nil)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	args := []string{"-spec", "smoke", "-workers", "2",
		"-out", filepath.Join(dir, "j.jsonl"), "-metrics", metricsPath}
	if err := run(context.Background(), args, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, data)
	}
	if got := snap.Counters[obs.SweepJobs]; got != 8 { // smoke = 2 sizes × 4 trials
		t.Errorf("%s = %d, want 8", obs.SweepJobs, got)
	}
	if rate := snap.Rates[obs.SweepJobs]; rate <= 0 {
		t.Errorf("jobs/sec rate = %v, want > 0", rate)
	}
	if h := snap.Histograms[obs.SweepJournalAppendNS]; h.Count == 0 || h.Sum <= 0 {
		t.Errorf("journal append+fsync histogram empty: %+v", h)
	}
	if h := snap.Histograms[obs.KernelRoundNS]; h.Count == 0 {
		t.Errorf("per-round solver histogram empty: %+v", h)
	}
	if h := snap.Histograms[obs.SweepJobNS]; h.Count != 8 {
		t.Errorf("per-job histogram count = %d, want 8", h.Count)
	}
}

// startServe launches "sweep serve" with -addr :0 under a cancellable
// context, waits for -addrfile to publish the bound address, and returns the
// base URL plus a stop function that shuts the daemon down gracefully and
// requires exit 0.
func startServe(t *testing.T, datadir string) (string, func()) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0",
			"-datadir", datadir, "-addrfile", addrFile, "-workers", "2"}, &strings.Builder{})
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			addr = strings.TrimSpace(string(data))
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("serve exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never wrote -addrfile")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("serve shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not shut down")
		}
	}
}

// The serve lifecycle: submit a campaign over HTTP, watch it to completion,
// stop the daemon (exit 0), and restart on the same datadir — the finished
// campaign is still listed, done, and servable.
func TestServeLifecycle(t *testing.T) {
	datadir := filepath.Join(t.TempDir(), "sweepd")
	base, stop := startServe(t, datadir)

	resp, err := http.Post(base+"/campaigns", "application/json",
		strings.NewReader(`{"set":"smoke","workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var m daemon.Meta
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	if m.TotalJobs != 8 { // smoke = 2 sizes × 4 trials
		t.Fatalf("total_jobs = %d, want 8", m.TotalJobs)
	}

	waitDone := func(base string) daemon.Status {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/campaigns/" + m.ID)
			if err != nil {
				t.Fatal(err)
			}
			var st daemon.Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st.State.Terminal() {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign stuck in %q", st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if st := waitDone(base); st.State != daemon.StateDone {
		t.Fatalf("campaign ended %q (error %q), want done", st.State, st.Error)
	}

	// The aggregate endpoint recomputes from the journal and audits it.
	resp, err = http.Get(base + "/campaigns/" + m.ID + "/results?format=table")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(table), "mdbl-count") {
		t.Fatalf("results: status %d:\n%s", resp.StatusCode, table)
	}
	stop()

	// Restart on the same datadir: the durable queue still holds the
	// campaign, terminal, without re-running anything.
	base2, stop2 := startServe(t, datadir)
	defer stop2()
	if st := waitDone(base2); st.State != daemon.StateDone || st.DoneJobs != 8 {
		t.Fatalf("after restart: state %q done_jobs %d, want done/8", st.State, st.DoneJobs)
	}
}

// The serve HTTP server carries the shared connection timeouts and no write
// timeout, which would cut off long /stream responses.
func TestServeServerTimeouts(t *testing.T) {
	var hs *http.Server
	prev := newHTTPServer
	defer func() { newHTTPServer = prev }()
	newHTTPServer = func(h http.Handler) *http.Server {
		hs = prev(h)
		return hs
	}
	_, stop := startServe(t, filepath.Join(t.TempDir(), "sweepd"))
	stop()
	if hs == nil {
		t.Fatal("serve built no HTTP server")
	}
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("serve timeouts: read-header %v, idle %v, write %v; want the first two set and no write timeout",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
}

func TestServeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-max-campaigns", "0"},
		{"serve", "-workers", "0"},
		{"serve", "-retries", "-1"},
		{"serve", "-nope"},
		{"serve", "stray-positional"},
	} {
		err := run(context.Background(), args, &strings.Builder{})
		if cli.ExitCode(err) != cli.ExitUsage {
			t.Fatalf("args %v: want usage error, got %v", args, err)
		}
	}
	// A bad -addr is only reached after the daemon opens its datadir; keep
	// that side effect in a temp directory.
	args := []string{"serve", "-datadir", filepath.Join(t.TempDir(), "d"),
		"-addr", "not-an-address:-1"}
	if err := run(context.Background(), args, &strings.Builder{}); cli.ExitCode(err) != cli.ExitUsage {
		t.Fatalf("args %v: want usage error, got %v", args, err)
	}
}

// -timeout doubles as a scheduled shutdown: the daemon exits 0 on its own.
func TestServeTimeoutExitsCleanly(t *testing.T) {
	err := run(context.Background(), []string{"serve", "-addr", "127.0.0.1:0",
		"-datadir", filepath.Join(t.TempDir(), "d"), "-timeout", "150ms"}, &strings.Builder{})
	if err != nil {
		t.Fatalf("timed-out serve must exit 0, got %v", err)
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-spec", "smoke", "-out", filepath.Join(t.TempDir(), "j.jsonl")}, &strings.Builder{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cli.ExitCode(err) != cli.ExitRuntime {
		t.Fatalf("canceled campaign must exit %d", cli.ExitRuntime)
	}
}
