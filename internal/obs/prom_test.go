package obs

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"bettertogether/internal/metrics"
)

// sampleLine matches one exposition sample: metric name, optional label
// set, a float value, optionally a timestamp. This is the line-format
// check the acceptance criteria pin — every non-comment line PromText
// produces must match it.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)

// checkExposition fails t when a /metrics body is not well formed: a
// # HELP or # TYPE line repeats (a family written twice), a sample's
// family has no earlier # TYPE (the name itself, or a summary's name
// without its _sum/_count suffix), or a sample line fails sampleLine.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	seen := map[string]bool{}
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("malformed header %q", line)
				continue
			}
			key := f[1] + " " + f[2]
			if seen[key] {
				t.Errorf("repeated # %s line for %s", f[1], f[2])
			}
			seen[key] = true
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if _, ok := typed[name]; ok {
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if typed[base] != "summary" {
			t.Errorf("sample %q precedes its family's # TYPE", line)
		}
	}
}

// testCollector builds a small labeled collector with deterministic
// observations.
func testCollector() *metrics.Pipeline {
	m := metrics.New(2, 2, 1)
	s0 := m.Stage(0)
	s0.Name, s0.Chunk, s0.PU = "sort", 0, "big"
	s1 := m.Stage(1)
	s1.Name, s1.Chunk, s1.PU = `tricky"stage\n`, 1, "gpu"
	m.Queue(0).Label = "chunk 0 → 1"
	m.Queue(0).Cap = 3
	m.Queue(1).Label = "chunk 1 → 0"
	m.Queue(1).Cap = 3
	p := m.Pool(0)
	p.PU, p.Width = "big", 4
	for i := 0; i < 10; i++ {
		m.StageDone(0, time.Duration(i+1)*time.Millisecond)
		m.StageDone(1, time.Duration(i+1)*time.Microsecond)
		m.QueueWait(0, time.Duration(i)*time.Microsecond)
		m.QueueStall(1, 0)
		m.QueueDepth(0, i%4)
	}
	p.AddBusy(40 * time.Millisecond)
	m.SetElapsed(20 * time.Millisecond)
	return m
}

func TestPromTextLineFormat(t *testing.T) {
	var b strings.Builder
	err := PromText(&b, PromSource{Session: "octree#0", Metrics: testCollector()},
		PromSource{Metrics: testCollector()})
	if err != nil {
		t.Fatalf("PromText: %v", err)
	}
	out := b.String()
	if out == "" {
		t.Fatal("empty exposition")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	samples := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("sample line fails format check: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition has no samples")
	}
}

func TestPromTextContent(t *testing.T) {
	var b strings.Builder
	if err := PromText(&b, PromSource{Session: "s1", Metrics: testCollector()}); err != nil {
		t.Fatalf("PromText: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`bt_stage_dispatches_total{session="s1",stage="sort",chunk="0",pu="big"} 10`,
		`bt_stage_service_seconds{session="s1",stage="sort",chunk="0",pu="big",quantile="0.5"}`,
		`bt_stage_service_seconds_count{session="s1",stage="sort",chunk="0",pu="big"} 10`,
		`bt_queue_pops_total{session="s1",queue="chunk 0 → 1"} 10`,
		`bt_queue_depth_max{session="s1",queue="chunk 0 → 1"} 3`,
		`bt_pool_busy_seconds_total{session="s1",pu="big",width="4"} 0.04`,
		`bt_pool_utilization_ratio{session="s1",pu="big",width="4"} 0.5`,
		`bt_run_elapsed_seconds{session="s1"} 0.02`,
		"# TYPE bt_stage_service_seconds summary",
		"# TYPE bt_stage_dispatches_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Label escaping: the tricky stage name must come out escaped.
	if !strings.Contains(out, `stage="tricky\"stage\\n"`) {
		t.Errorf("label escaping wrong; got:\n%s", findLines(out, "tricky"))
	}
}

func TestPromTextNoSessionOmitsLabel(t *testing.T) {
	var b strings.Builder
	if err := PromText(&b, PromSource{Metrics: testCollector()}); err != nil {
		t.Fatalf("PromText: %v", err)
	}
	if strings.Contains(b.String(), "session=") {
		t.Fatal("sessionless source must not carry a session label")
	}
	if !strings.Contains(b.String(), `bt_stage_dispatches_total{stage="sort",chunk="0",pu="big"} 10`) {
		t.Fatal("sessionless series missing")
	}
}

func TestPromTextSkipsNilSources(t *testing.T) {
	var b strings.Builder
	if err := PromText(&b, PromSource{Session: "dead"}); err != nil {
		t.Fatalf("PromText: %v", err)
	}
	if strings.Contains(b.String(), "dead") {
		t.Fatal("nil collector produced series")
	}
	// Families still render (empty), and remain parseable.
	if !strings.Contains(b.String(), "# TYPE bt_stage_dispatches_total counter") {
		t.Fatal("family headers missing")
	}
}

// findLines returns the lines of s containing sub, for error messages.
func findLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
