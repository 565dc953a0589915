package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bettertogether/internal/fleet"
)

// runMainEnv makes a re-executed test binary run the command's main with
// its own arguments instead of the tests.
const runMainEnv = "BTFLEET_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfileFlagsSmoke runs a four-arrival replay with -cpuprofile and
// -memprofile, and one whose unknown app makes the replay fail, and
// checks that each run writes both profiles as non-empty pprof files.
func TestProfileFlagsSmoke(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		fail bool
	}{
		{"ok", []string{"-nodes", "pixel7a,jetson", "-apps", "octree,vision", "-arrivals", "4", "-tasks", "2"}, false},
		{"failing", []string{"-nodes", "pixel7a,jetson", "-apps", "octree,nosuch", "-arrivals", "4", "-tasks", "2"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
			cmd := exec.Command(os.Args[0], append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			if out, err := cmd.CombinedOutput(); (err != nil) != c.fail {
				t.Fatalf("btfleet: err %v, want failure %v\n%s", err, c.fail, out)
			}
			for _, path := range []string{cpu, mem} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
					t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(path), len(b))
				}
			}
		})
	}
}

// TestRejectsZeroGeneratorFlags pins that a zero or empty generator
// flag exits non-zero naming the flag, rather than replaying under
// fleet.GenConfig's own default for that knob.
func TestRejectsZeroGeneratorFlags(t *testing.T) {
	for _, flag := range []string{"-tasks", "-burst", "-burst-every", "-mean-dwell", "-rate", "-pattern"} {
		val := "0"
		if flag == "-pattern" {
			val = ""
		}
		cmd := exec.Command(os.Args[0], flag, val)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), flag+" must be") {
			t.Errorf("btfleet %s %q: err %v, output %q; want a failure naming %s", flag, val, err, out, flag)
		}
	}
}

// TestRejectsIgnoredGeneratorFlags pins that a generator flag the
// selected pattern or a supplied -trace never reads exits non-zero,
// naming the flag, instead of being dropped silently.
func TestRejectsIgnoredGeneratorFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	raw := `{"arrivals":[{"at":0,"app":"octree","dwell":1,"tasks":2}]}`
	if err := os.WriteFile(trace, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "8"}, "-rate has no effect with -pattern bursty"},
		{[]string{"-pattern", "bursty", "-rate", "8"}, "-rate has no effect with -pattern bursty"},
		{[]string{"-pattern", "poisson", "-burst", "2"}, "-burst has no effect with -pattern poisson"},
		{[]string{"-pattern", "poisson", "-burst-every", "9"}, "-burst-every has no effect with -pattern poisson"},
		{[]string{"-trace", trace, "-arrivals", "2"}, "-arrivals has no effect with -trace"},
		{[]string{"-trace", trace, "-pattern", "poisson"}, "-pattern has no effect with -trace"},
		{[]string{"-trace", trace, "-apps", "octree"}, "-apps has no effect with -trace"},
		{[]string{"-trace", trace, "-mean-dwell", "3"}, "-mean-dwell has no effect with -trace"},
		{[]string{"-trace", trace, "-tasks", "3"}, "-tasks has no effect with -trace"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("btfleet %s: err %v, output %q; want a failure saying %q", strings.Join(c.args, " "), err, out, c.want)
		}
	}
}

// TestRejectsRepeatedDevice pins that a device named twice in -nodes
// exits non-zero: both entries would register a node jetson/0.
func TestRejectsRepeatedDevice(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-nodes", "jetson=1,jetson=1", "-arrivals", "2")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "jetson=<count>") {
		t.Errorf("btfleet -nodes jetson=1,jetson=1: err %v, output %q; want a failure naming jetson=<count>", err, out)
	}
}

// smokeArgs is a short heterogeneous trace that routes without a single
// rejection: vision overflows the jetson's unscaled bandwidth and spills
// to the pixel, so it also exercises spillover.
var smokeArgs = []string{
	"-nodes", "jetson,pixel7a,oneplus11", "-apps", "vision,octree",
	"-arrivals", "6", "-burst", "3", "-bw-headroom", "1.0", "-core-headroom", "100",
	"-seed", "7",
}

// smoke returns smokeArgs followed by extra, in a fresh slice.
func smoke(extra ...string) []string {
	return append(append([]string{}, smokeArgs...), extra...)
}

// btfleet runs the command with args in a re-executed test binary and
// returns its stdout and stderr, failing the test if it exits non-zero.
func btfleet(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("btfleet %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	return out.String(), errOut.String()
}

// btfleetTwice runs the command twice and fails unless both runs print
// byte-identical stdout, which it returns.
func btfleetTwice(t *testing.T, args ...string) string {
	t.Helper()
	first, _ := btfleet(t, args...)
	if second, _ := btfleet(t, args...); second != first {
		t.Fatalf("btfleet %s: two runs differ:\n%s\n---\n%s", strings.Join(args, " "), first, second)
	}
	return first
}

// decodeResult parses a -json report.
func decodeResult(t *testing.T, out string) fleet.ReplayResult {
	t.Helper()
	var r fleet.ReplayResult
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("decode -json output: %v\n%s", err, out)
	}
	return r
}

// TestReplaySmoke replays the smoke trace with and without a mid-replay
// drain: each twice, byte-identical, with no rejection, at least one
// spillover, and a drain row reporting migrated sessions.
func TestReplaySmoke(t *testing.T) {
	args := smoke("-max-rejections", "0")
	plain := btfleetTwice(t, args...)
	if !regexp.MustCompile(`spillovers +[1-9]`).MatchString(plain) {
		t.Errorf("smoke trace produced no spillover:\n%s", plain)
	}
	drained := btfleetTwice(t, append(args, "-drain-node", "jetson/0", "-drain-at", "40.5")...)
	if !regexp.MustCompile(`drain jetson/0 at 40\.50 +[1-9][0-9]* migrated`).MatchString(drained) {
		t.Errorf("drain run migrated nothing:\n%s", drained)
	}
}

// TestReportShape checks the default replay's accounting and report
// layout: 12 arrivals over the 3-node registry, each placed or
// rejected, the emitted trace as long as the replay, and no SLO rows or
// summary without a deadline.
func TestReportShape(t *testing.T) {
	body, stderr := btfleet(t)
	for _, want := range []string{
		"Placement decisions", "Fleet nodes", "Fleet replay summary",
		"rejection rate", "p99 latency (s)",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if nodes := regexp.MustCompile(`(?m)^\S+/\d+ `).FindAllString(body, -1); len(nodes) != 3 {
		t.Errorf("default registry lists %d nodes %q, want 3", len(nodes), nodes)
	}
	if strings.Contains(body, "slo ") || strings.Contains(stderr, "slo:") {
		t.Errorf("deadline-free run reports SLO state:\n%s%s", body, stderr)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	out, _ := btfleet(t, "-json", "-emit-trace", path)
	r := decodeResult(t, out)
	if r.Arrivals != 12 || r.Placed+r.Rejected != r.Arrivals || r.SLO != nil {
		t.Fatalf("accounting broken: %+v", r)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := fleet.DecodeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) != r.Arrivals {
		t.Fatalf("trace length %d, result arrivals %d", len(tr.Arrivals), r.Arrivals)
	}
}

// TestReportSLO checks the deadline wiring: with -slo-deadline every
// session carries the deadline, the report grows the attainment rows,
// the JSON carries the SLO section, and the stderr summary's session
// count agrees with it. Two -json runs are byte-identical.
func TestReportSLO(t *testing.T) {
	args := smoke("-slo-deadline", "3", "-trace-sample", "1")
	body, _ := btfleet(t, args...)
	for _, want := range []string{"slo attained", "slo p99 latency (s)"} {
		if !strings.Contains(body, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	out := btfleetTwice(t, append(args, "-json")...)
	if !strings.Contains(out, `"slo"`) {
		t.Fatalf("replay JSON lacks the SLO section:\n%s", out)
	}
	r := decodeResult(t, out)
	_, stderr := btfleet(t, append(args, "-json")...)
	m := regexp.MustCompile(`slo: \d+/(\d+) sessions attained`).FindStringSubmatch(stderr)
	if r.SLO == nil || m == nil || m[1] != strconv.Itoa(r.SLO.Sessions) {
		t.Fatalf("stderr summary %q disagrees with the result's SLO section %+v", m, r.SLO)
	}
}

// TestSuppliedTrace checks that -trace replays the file in place of
// the generator: a trace written by -emit-trace replays to the same
// report on the same fleet without any generator flag, and a
// hand-written two-arrival trace places both arrivals.
func TestSuppliedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	emitted, _ := btfleet(t, smoke("-emit-trace", path)...)
	replayed, _ := btfleet(t, "-nodes", "jetson,pixel7a,oneplus11", "-bw-headroom", "1.0",
		"-core-headroom", "100", "-seed", "7", "-trace", path)
	if replayed != emitted {
		t.Fatalf("-trace report differs from the -emit-trace run:\n%s\n---\n%s", emitted, replayed)
	}

	two := filepath.Join(t.TempDir(), "two.json")
	raw := `{"arrivals":[{"at":0,"app":"octree","dwell":1,"tasks":2},{"at":2,"app":"alexnet-sparse","dwell":1,"tasks":2}]}`
	if err := os.WriteFile(two, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := btfleet(t, "-trace", two, "-seed", "5", "-json")
	if r := decodeResult(t, out); r.Arrivals != 2 || r.Placed != 2 {
		t.Fatalf("supplied trace not replayed: %+v", r)
	}
}

// TestListenSmoke serves the SLO replay with -listen on an ephemeral
// port and checks /healthz, /traces and the bt_slo_* families on
// /metrics.
func TestListenSmoke(t *testing.T) {
	args := smoke("-slo-deadline", "3", "-trace-sample", "1", "-listen", "127.0.0.1:0", "-hold", "30s")
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
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

	addrRe := regexp.MustCompile(`observability server on http://(\S+)/`)
	var addr string
	var seen strings.Builder
	sc := bufio.NewScanner(stderr)
	for addr == "" && sc.Scan() {
		seen.WriteString(sc.Text() + "\n")
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("btfleet never announced its server; stderr:\n%s", seen.String())
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
	if _, body := get("/traces"); !strings.Contains(body, `"trace_id"`) {
		t.Errorf("/traces served no traces:\n%s", body)
	}
	_, body := get("/metrics")
	if !regexp.MustCompile(`(?m)^bt_slo_attained_total`).MatchString(body) {
		t.Errorf("/metrics lacks the bt_slo_* families")
	}
	checkExposition(t, body)
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
