package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes a re-executed test binary run the command's main with
// its own arguments instead of the tests.
const runMainEnv = "BTRUN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestListenSmoke runs a short real-engine pipeline with -listen on an
// ephemeral port and, once the run has finished and the server is
// holding, checks /healthz and the per-stage series on /metrics.
func TestListenSmoke(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-app", "vision", "-device", "jetson", "-schedule", "gpu",
		"-engine", "real", "-tasks", "12", "-warmup", "2", "-listen", "127.0.0.1:0", "-hold", "30s")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// The server is announced before the run; the hold line follows the
	// run, so the metrics read below see every dispatch.
	addrRe := regexp.MustCompile(`observability server on http://(\S+)/`)
	var addr string
	held := false
	var seen strings.Builder
	sc := bufio.NewScanner(stderr)
	for !held && sc.Scan() {
		seen.WriteString(sc.Text() + "\n")
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
		held = strings.Contains(sc.Text(), "holding observability server")
	}
	if addr == "" || !held {
		t.Fatalf("btrun never announced and held its server; stderr:\n%s", seen.String())
	}

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz answered %d", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/metrics answered %d with %d bytes", code, len(body))
	}
	if !regexp.MustCompile(`(?m)^bt_stage_dispatches_total`).MatchString(body) {
		t.Errorf("/metrics lacks the bt_stage_* series:\n%s", body)
	}
}
