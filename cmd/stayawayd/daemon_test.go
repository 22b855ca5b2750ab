package main

// Binary-level integration tests: the test binary re-execs itself as
// stayawayd (see TestMain) against a throwaway cgroup tree made of plain
// files, so the full daemon — flags, collector, arbiter, admin surface,
// hot reload, graceful shutdown — runs without root or a real cgroupfs.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
)

func TestMain(m *testing.M) {
	if os.Getenv("STAYAWAYD_TEST_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// writeCgroupTree lays out the file set the cgroup package reads and
// writes, with one member process per group so every workload counts as
// running.
func writeCgroupTree(t *testing.T, root string, groups ...string) {
	t.Helper()
	for _, g := range groups {
		dir := filepath.Join(root, g)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{
			"cgroup.procs":   "12345\n",
			"cgroup.freeze":  "0\n",
			"cpu.max":        "max 100000\n",
			"memory.high":    "max\n",
			"cpu.stat":       "usage_usec 0\nuser_usec 0\nsystem_usec 0\n",
			"memory.current": "0\n",
			"io.stat":        "",
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

type daemonProc struct {
	cmd      *exec.Cmd
	adminURL string
	done     chan error
	output   *strings.Builder
}

// startDaemon re-execs the test binary as stayawayd and, when the args
// include -admin-addr, scans stdout for the bound address.
func startDaemon(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STAYAWAYD_TEST_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, done: make(chan error, 1), output: &strings.Builder{}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.output.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "stayawayd: admin surface on "); ok {
				select {
				case addr <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
		}
	})
	wantAdmin := false
	for _, a := range args {
		if a == "-admin-addr" {
			wantAdmin = true
		}
	}
	if wantAdmin {
		select {
		case p.adminURL = <-addr:
		case err := <-p.done:
			t.Fatalf("daemon exited before binding the admin surface (%v):\n%s", err, p.output.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("no admin address announced:\n%s", p.output.String())
		}
	}
	return p
}

// readyz polls GET /readyz until cond accepts the status or the deadline
// passes.
func readyz(t *testing.T, p *daemonProc, cond func(code int, s daemon.Status) bool) daemon.Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last daemon.Status
	var lastCode int
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.adminURL + "/readyz")
		if err == nil {
			lastCode = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
			if err == nil && cond(lastCode, last) {
				return last
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("readyz condition not met (last code %d, status %+v):\n%s", lastCode, last, p.output.String())
	return last
}

func writeFileT(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func laneJSON(defs ...[3]string) string {
	var b strings.Builder
	b.WriteString(`{"version":1,"lanes":[`)
	for i, d := range defs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"app":%q,"sensitive_cgroup":%q,"qos_file":%q}`, d[0], d[1], d[2])
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestDaemonReloadLifecycle drives the full zero-downtime story against a
// live daemon: start with one lane, SIGHUP to two, reject a bad config
// without disturbing the running set, shrink back via POST /v1/reload,
// rename the last lane on its cgroup, and SIGTERM — then inspect the
// tree: nothing left frozen, every lane's learned state flushed.
func TestDaemonReloadLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon subprocess")
	}
	root := t.TempDir()
	stateDir := filepath.Join(root, "state")
	writeCgroupTree(t, root, "s/vlc", "s/kv", "s/b1", "s/b2")
	vlcQoS := filepath.Join(root, "vlc.qos")
	kvQoS := filepath.Join(root, "kv.qos")
	writeFileT(t, vlcQoS, "0.9 0.5\n")
	writeFileT(t, kvQoS, "0.9 0.5\n")
	lanesPath := filepath.Join(root, "lanes.json")
	writeFileT(t, lanesPath, laneJSON([3]string{"vlc", "s/vlc", vlcQoS}))

	p := startDaemon(t,
		"-lanes-file", lanesPath,
		"-batch-cgroups", "s/b1,s/b2",
		"-cgroup-root", root,
		"-state-dir", stateDir,
		"-checkpoint-every", "2",
		"-watchdog-grace", "0",
		"-period", "25ms",
		"-admin-addr", "127.0.0.1:0",
	)

	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && len(s.Lanes) == 1 && s.Lanes[0].App == "vlc"
	})

	// Grow to two lanes via SIGHUP.
	writeFileT(t, lanesPath, laneJSON(
		[3]string{"vlc", "s/vlc", vlcQoS},
		[3]string{"kv", "s/kv", kvQoS},
	))
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && len(s.Lanes) == 2 && s.Reload.Applied >= 1
	})

	// A bad config is rejected with a reason; both lanes keep running.
	writeFileT(t, lanesPath, `{"version":9,"lanes":[]}`)
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && len(s.Lanes) == 2 &&
			strings.Contains(s.Reload.LastError, "version 9")
	})

	// Shrink back through the programmatic twin of SIGHUP.
	writeFileT(t, lanesPath, laneJSON([3]string{"kv", "s/kv", kvQoS}))
	resp, err := http.Post(p.adminURL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/reload = %d, want 202", resp.StatusCode)
	}
	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && len(s.Lanes) == 1 && s.Lanes[0].App == "kv"
	})

	// Rename the lane on its cgroup: exactly one lane keeps it protected.
	writeFileT(t, lanesPath, laneJSON([3]string{"kv-store", "s/kv", kvQoS}))
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && s.Ready && len(s.Lanes) == 1 && s.Lanes[0].App == "kv-store"
	})

	// Graceful shutdown.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, p.output.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit on SIGTERM:\n%s", p.output.String())
	}

	// Inspect: nothing frozen, no lingering quota, learned state on disk
	// for the removed and renamed-away lanes (flushed at removal) and the
	// surviving one (flushed at shutdown).
	for _, g := range []string{"s/b1", "s/b2"} {
		data, err := os.ReadFile(filepath.Join(root, g, "cgroup.freeze"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(data)); got != "0" {
			t.Errorf("%s left frozen (%q) after graceful shutdown", g, got)
		}
	}
	for _, app := range []string{"vlc", "kv", "kv-store"} {
		ck := filepath.Join(stateDir, "checkpoint-"+app+".json")
		if _, err := os.Stat(ck); err != nil {
			t.Errorf("missing checkpoint for %s: %v", app, err)
		}
	}
}

// TestDaemonKillAndInspect is the graceful-shutdown satellite in legacy
// flag mode: a batch cgroup frozen mid-run (here by an outside hand) is
// thawed on SIGTERM, the legacy checkpoint is written, and the exit is
// clean.
func TestDaemonKillAndInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon subprocess")
	}
	root := t.TempDir()
	stateDir := filepath.Join(root, "state")
	writeCgroupTree(t, root, "s/vlc", "s/b1", "s/b2")
	qos := filepath.Join(root, "vlc.qos")
	writeFileT(t, qos, "0.9 0.5\n")

	p := startDaemon(t,
		"-sensitive-cgroup", "s/vlc",
		"-qos-file", qos,
		"-batch-cgroups", "s/b1,s/b2",
		"-cgroup-root", root,
		"-state-dir", stateDir,
		"-checkpoint-every", "2",
		"-watchdog-grace", "0",
		"-period", "25ms",
		"-admin-addr", "127.0.0.1:0",
	)
	readyz(t, p, func(code int, s daemon.Status) bool {
		return code == http.StatusOK && s.Periods >= 3
	})

	// Someone (or a crashed co-tenant controller) freezes a batch cgroup
	// behind the daemon's back.
	writeFileT(t, filepath.Join(root, "s/b1", "cgroup.freeze"), "1\n")

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, p.output.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit on SIGTERM:\n%s", p.output.String())
	}

	data, err := os.ReadFile(filepath.Join(root, "s/b1", "cgroup.freeze"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "0" {
		t.Errorf("s/b1 left frozen (%q): shutdown must thaw everything", got)
	}
	// Legacy single-lane layout keeps the unsuffixed checkpoint name.
	if _, err := os.Stat(filepath.Join(stateDir, "checkpoint.json")); err != nil {
		t.Errorf("legacy checkpoint missing: %v", err)
	}
}
