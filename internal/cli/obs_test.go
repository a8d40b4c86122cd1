package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn/internal/obs"
)

func newObsFlagSet() (*flag.FlagSet, *ObsConfig) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, ObsFlags(fs)
}

func TestObsFlagsDisabledIsNoop(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	fs, cfg := newObsFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Start(); err != nil {
		t.Fatal(err)
	}
	if obs.Global() != nil {
		t.Fatal("Start without flags installed a global collector")
	}
	if err := cfg.Finish(nil); err != nil {
		t.Fatal(err)
	}
}

func TestObsFlagsMetricsSnapshot(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)

	path := filepath.Join(t.TempDir(), "m.json")
	fs, cfg := newObsFlagSet()
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Start(); err != nil {
		t.Fatal(err)
	}
	col := obs.Global()
	if col == nil {
		t.Fatal("-metrics did not install a global collector")
	}
	col.Counter("test.events").Add(7)
	if err := cfg.Finish(nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, data)
	}
	if snap.Counters["test.events"] != 7 {
		t.Fatalf("snapshot counters = %v, want test.events=7", snap.Counters)
	}
}

// Finish must preserve the run's own error over a snapshot-write failure,
// but surface the write failure when the run succeeded.
func TestObsFinishErrorPrecedence(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)

	badPath := filepath.Join(t.TempDir(), "no-such-dir", "m.json")
	fs, cfg := newObsFlagSet()
	if err := fs.Parse([]string{"-metrics", badPath}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Start(); err != nil {
		t.Fatal(err)
	}
	runErr := fmt.Errorf("the run failed")
	if got := cfg.Finish(runErr); got != runErr {
		t.Fatalf("Finish(runErr) = %v, want the run error", got)
	}
	// A fresh config against the same bad path, now with a clean run.
	fs2, cfg2 := newObsFlagSet()
	if err := fs2.Parse([]string{"-metrics", badPath}); err != nil {
		t.Fatal(err)
	}
	if err := cfg2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := cfg2.Finish(nil); got == nil {
		t.Fatal("Finish(nil) swallowed the snapshot write failure")
	}
}

func TestObsFlagsPprofServer(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)

	fs, cfg := newObsFlagSet()
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cfg.Finish(nil); err != nil {
			t.Fatal(err)
		}
	}()
	addr := cfg.Addr()
	if addr == "" {
		t.Fatal("no listen address after Start")
	}
	checkServerTimeouts(t, cfg.srv)
	obs.Global().Counter("test.live").Inc()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "test.live") {
			t.Fatalf("/metrics missing live counter:\n%s", body)
		}
	}
}

func TestObsFlagsBadPprofAddrIsUsageError(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)

	fs, cfg := newObsFlagSet()
	if err := fs.Parse([]string{"-pprof", "not-an-address:-1"}); err != nil {
		t.Fatal(err)
	}
	err := cfg.Start()
	if err == nil {
		t.Fatal("bad -pprof address accepted")
	}
	if !IsUsage(err) {
		t.Fatalf("bad -pprof address should be a usage error, got %v", err)
	}
	_ = cfg.Finish(nil)
}
