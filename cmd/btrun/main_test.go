package main

import (
	"bufio"
	"encoding/json"
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

// listen re-executes btrun with args plus -listen on an ephemeral port
// and -hold, waits until the run has finished and the server is holding,
// and returns a GET helper against the server.
func listen(t *testing.T, args ...string) func(path string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "-listen", "127.0.0.1:0", "-hold", "30s")...)
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
	// run, so the reads below see every dispatch.
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
	return func(path string) (int, string) {
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
}

// TestSingleAppRefusesRuntimeFlags pins that single-app mode exits
// non-zero on a flag only the multi-app runtime reads, instead of
// running as if the flag were absent.
func TestSingleAppRefusesRuntimeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sched-cache", "8"},
		{"-cache-bucket", "0.1"},
		{"-replan-delta", "5"},
		{"-online-profile"},
		{"-drift-threshold", "0.4", "-online-profile"},
		{"-slo-deadline", "3"},
		{"-trace-sample", "1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-app", "octree", "-schedule", "big", "-tasks", "4"}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), args[0]) || !strings.Contains(string(out), "require multi-app mode") {
			t.Errorf("btrun %v: err %v, output %q; want a failure naming %s and multi-app mode", args, err, out, args[0])
		}
	}
}

// TestRejectsBadTaskCounts pins that a task count the engines would
// replace with their default exits non-zero naming the flag, in single-
// and multi-app mode, instead of running 30 tasks under a report that
// prints the given count.
func TestRejectsBadTaskCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-tasks", "-5"},
		{"-tasks", "0"},
		{"-warmup", "-1"},
		{"-tasks", "-5", "-app", "vision"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-app", "octree", "-schedule", "big"}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), args[0]+" must be") {
			t.Errorf("btrun %v: err %v, output %q; want a failure naming %s", args, err, out, args[0])
		}
	}
}

// TestListenSmoke runs a short real-engine pipeline with -listen and
// checks /healthz and the per-stage series on /metrics.
func TestListenSmoke(t *testing.T) {
	get := listen(t, "-app", "vision", "-device", "jetson", "-schedule", "gpu",
		"-engine", "real", "-tasks", "12", "-warmup", "2")
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
	checkExposition(t, body)
}

// TestListenMultiAppSmoke serves a two-session runtime with the schedule
// cache, online profiling, SLO deadlines and lifecycle tracing on, and
// checks every family set on /metrics, the merged /trace, and /traces.
func TestListenMultiAppSmoke(t *testing.T) {
	get := listen(t, "-app", "octree", "-app", "vision", "-sched-cache", "64",
		"-online-profile", "-slo-deadline", "3", "-trace-sample", "1")
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics answered %d", code)
	}
	for _, family := range []string{"bt_session_", "bt_schedcache_", "bt_onlineprof_", "bt_slo_"} {
		if !regexp.MustCompile(`(?m)^` + family).MatchString(body) {
			t.Errorf("/metrics lacks the %s* families", family)
		}
	}
	checkExposition(t, body)

	_, body = get("/trace")
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace JSON: %v", err)
	}
	threads := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Name == "thread_name" {
			name, _ := e.Args["name"].(string)
			session, _, _ := strings.Cut(name, "/")
			threads[session] = true
		}
	}
	if !threads["octree-uniform#0"] || !threads["vision#1"] {
		t.Errorf("/trace threads are not qualified by both sessions: %v", threads)
	}

	_, body = get("/traces")
	for _, session := range []string{`"octree-uniform#0"`, `"vision#1"`} {
		if !strings.Contains(body, session) {
			t.Errorf("/traces does not list %s:\n%s", session, body)
		}
	}
}

// checkExposition fails t when a /metrics body is not well formed: a
// # HELP or # TYPE line repeats, or a sample's family (its name, or a
// summary's name without _sum/_count) has no earlier # TYPE.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	seen := map[string]bool{}
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" {
			if seen[f[1]+" "+f[2]] {
				t.Errorf("repeated # %s line for %s", f[1], f[2])
			}
			seen[f[1]+" "+f[2]] = true
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		name := line[:max(strings.IndexAny(line, "{ "), 0)]
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if typed[name] == "" && typed[base] != "summary" {
			t.Errorf("sample %q precedes its family's # TYPE", line)
		}
	}
}
