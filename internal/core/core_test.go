package core

import (
	"math"
	"strings"
	"testing"
)

func TestBackendAndKindStrings(t *testing.T) {
	if BackendCPU.String() != "cpu" || BackendGPU.String() != "gpu" {
		t.Error("backend strings wrong")
	}
	if !strings.Contains(Backend(9).String(), "9") {
		t.Error("unknown backend should include code")
	}
	if KindCPU.String() != "CPU" || KindGPU.String() != "GPU" {
		t.Error("kind strings wrong")
	}
	if KindCPU.Backend() != BackendCPU || KindGPU.Backend() != BackendGPU {
		t.Error("kind/backend mapping wrong")
	}
}

func TestCostSpecValidate(t *testing.T) {
	good := CostSpec{FLOPs: 100, Bytes: 50, ParallelFraction: 0.9, Divergence: 0.2, Irregularity: 0.1, WorkItems: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []CostSpec{
		{FLOPs: -1},
		{Bytes: -1},
		{WorkItems: -1},
		{ParallelFraction: 1.5},
		{Divergence: -0.1},
		{Irregularity: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, c)
		}
	}
}

func TestTaskObjectLifecycle(t *testing.T) {
	resets := 0
	task := NewTaskObject("payload", func(to *TaskObject) { resets++ })
	task.Reset(7)
	if task.Seq != 7 || resets != 1 {
		t.Errorf("Reset: seq=%d resets=%d", task.Seq, resets)
	}
}

func TestTaskObjectNilReset(t *testing.T) {
	task := NewTaskObject(nil, nil)
	task.Reset(3) // must not panic
	if task.Seq != 3 {
		t.Error("Seq not set")
	}
}

func TestSerialFor(t *testing.T) {
	var calls [][2]int
	SerialFor(5, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	if len(calls) != 1 || calls[0] != [2]int{0, 5} {
		t.Errorf("SerialFor calls = %v", calls)
	}
	SerialFor(0, func(lo, hi int) { t.Error("SerialFor(0) should not call body") })
}

func nopKernel(task *TaskObject, par ParallelFor) {}

func testApp(n int) *Application {
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Stage{Name: string(rune('a' + i)), CPU: nopKernel, GPU: nopKernel}
	}
	return &Application{
		Name:    "test",
		Stages:  stages,
		NewTask: func() *TaskObject { return NewTaskObject(nil, nil) },
	}
}

func TestApplicationValidate(t *testing.T) {
	if err := testApp(3).Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Application)
	}{
		{"no name", func(a *Application) { a.Name = "" }},
		{"no stages", func(a *Application) { a.Stages = nil }},
		{"no factory", func(a *Application) { a.NewTask = nil }},
		{"stage without name", func(a *Application) { a.Stages[0].Name = "" }},
		{"missing CPU kernel", func(a *Application) { a.Stages[1].CPU = nil }},
		{"missing GPU kernel", func(a *Application) { a.Stages[1].GPU = nil }},
		{"bad cost", func(a *Application) { a.Stages[2].Cost.Divergence = 3 }},
	}
	for _, c := range cases {
		a := testApp(3)
		c.mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: invalid application accepted", c.name)
		}
	}
}

func TestStageKernelSelection(t *testing.T) {
	cpuCalled, gpuCalled := false, false
	s := Stage{
		Name: "x",
		CPU:  func(*TaskObject, ParallelFor) { cpuCalled = true },
		GPU:  func(*TaskObject, ParallelFor) { gpuCalled = true },
	}
	s.Kernel(BackendCPU)(nil, SerialFor)
	s.Kernel(BackendGPU)(nil, SerialFor)
	if !cpuCalled || !gpuCalled {
		t.Error("Kernel() selected wrong implementation")
	}
}

func TestStageNames(t *testing.T) {
	a := testApp(3)
	names := a.StageNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("StageNames = %v", names)
	}
}

func TestScheduleChunks(t *testing.T) {
	s := Schedule{Assign: []PUClass{"big", "big", "gpu", "gpu", "gpu", "little"}}
	chunks := s.Chunks()
	want := []Chunk{{"big", 0, 2}, {"gpu", 2, 5}, {"little", 5, 6}}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, chunks[i], want[i])
		}
		if chunks[i].Len() != want[i].End-want[i].Start {
			t.Errorf("chunk %d Len wrong", i)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	allowed := []PUClass{"big", "little", "gpu"}
	good := Schedule{Assign: []PUClass{"big", "big", "gpu"}}
	if err := good.Validate(3, allowed); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := good.Validate(4, allowed); err == nil {
		t.Error("length mismatch accepted")
	}
	unknown := Schedule{Assign: []PUClass{"big", "huge", "gpu"}}
	if err := unknown.Validate(3, allowed); err == nil {
		t.Error("unknown class accepted")
	}
	// Contiguity violation: big appears in two separated runs.
	split := Schedule{Assign: []PUClass{"big", "gpu", "big"}}
	if err := split.Validate(3, allowed); err == nil {
		t.Error("contiguity violation accepted")
	}
}

func TestNewUniformSchedule(t *testing.T) {
	s := NewUniformSchedule(4, ClassGPU)
	if len(s.Chunks()) != 1 || s.Chunks()[0].PU != ClassGPU {
		t.Errorf("uniform schedule chunks = %v", s.Chunks())
	}
}

func TestScheduleEqualAndKey(t *testing.T) {
	a := Schedule{Assign: []PUClass{"big", "gpu"}}
	b := Schedule{Assign: []PUClass{"big", "gpu"}}
	c := Schedule{Assign: []PUClass{"gpu", "big"}}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal wrong")
	}
	if a.Key() == c.Key() {
		t.Error("distinct schedules share a key")
	}
	if a.String() != "[big gpu]" {
		t.Errorf("String = %q", a.String())
	}
	if a.Equal(Schedule{Assign: []PUClass{"big"}}) {
		t.Error("length mismatch Equal")
	}
}

func TestTaskGraphLinearizeLinear(t *testing.T) {
	g := &TaskGraph{Nodes: testApp(4).Stages}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	order, err := g.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range order {
		if s.Name != string(rune('a'+i)) {
			t.Fatalf("linear order broken at %d: %s", i, s.Name)
		}
	}
}

func TestTaskGraphLinearizeDiamond(t *testing.T) {
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (octree-like fan-in).
	g := &TaskGraph{Nodes: testApp(4).Stages}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	order, err := g.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range order {
		pos[s.Name] = i
	}
	if pos["a"] != 0 || pos["d"] != 3 {
		t.Errorf("diamond endpoints misplaced: %v", pos)
	}
	if pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Error("dependencies violated")
	}
	// Deterministic tie-break: b (index 1) before c (index 2).
	if pos["b"] > pos["c"] {
		t.Error("linearization not deterministic-min")
	}
}

func TestTaskGraphCycleDetected(t *testing.T) {
	g := &TaskGraph{Nodes: testApp(3).Stages}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.Linearize(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestTaskGraphBadEdges(t *testing.T) {
	g := &TaskGraph{Nodes: testApp(2).Stages}
	g.AddEdge(0, 5)
	if _, err := g.Linearize(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g2 := &TaskGraph{Nodes: testApp(2).Stages}
	g2.AddEdge(1, 1)
	if _, err := g2.Linearize(); err == nil {
		t.Error("self-edge accepted")
	}
}

func newTestTable() *ProfileTable {
	t := NewProfileTable("app", "dev", InterferenceHeavy,
		[]string{"s0", "s1", "s2"}, []PUClass{"big", "gpu"})
	// big: 1, 2, 3 ; gpu: 10, 1, 1
	t.Set(0, "big", 1)
	t.Set(1, "big", 2)
	t.Set(2, "big", 3)
	t.Set(0, "gpu", 10)
	t.Set(1, "gpu", 1)
	t.Set(2, "gpu", 1)
	return t
}

func TestProfileTableBasics(t *testing.T) {
	tab := NewProfileTable("a", "d", Isolated, []string{"x"}, []PUClass{"big"})
	if tab.Complete() {
		t.Error("fresh table should be incomplete")
	}
	if !math.IsNaN(tab.Get(0, "big")) {
		t.Error("unmeasured entry should be NaN")
	}
	tab.Set(0, "big", 0.5)
	if !tab.Complete() || tab.Get(0, "big") != 0.5 {
		t.Error("Set/Get/Complete wrong")
	}
	if tab.PUIndex("gpu") != -1 {
		t.Error("unknown PU index should be -1")
	}
	if Isolated.String() != "isolated" || InterferenceHeavy.String() != "interference-heavy" {
		t.Error("mode strings wrong")
	}
}

func TestProfileTableSetUnknownPUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newTestTable().Set(0, "npu", 1)
}

func TestPredictions(t *testing.T) {
	tab := newTestTable()
	// Schedule: s0 on big, s1+s2 on gpu → chunks: big[0,1)=1, gpu[1,3)=2.
	s := Schedule{Assign: []PUClass{"big", "gpu", "gpu"}}
	cts := tab.PredictChunkTimes(s)
	if len(cts) != 2 || cts[0] != 1 || cts[1] != 2 {
		t.Fatalf("chunk times = %v", cts)
	}
	if got := tab.PredictLatency(s); got != 2 {
		t.Errorf("PredictLatency = %v, want 2", got)
	}
	if got := tab.PredictGapness(s); got != 1 {
		t.Errorf("PredictGapness = %v, want 1", got)
	}
	if got := tab.ChunkTime("big", 0, 3); got != 6 {
		t.Errorf("ChunkTime = %v, want 6", got)
	}
}

func TestPredictGapnessUniform(t *testing.T) {
	tab := newTestTable()
	s := NewUniformSchedule(3, "big")
	if got := tab.PredictGapness(s); got != 0 {
		t.Errorf("single-chunk gapness = %v, want 0", got)
	}
}

func TestProfileTableJSONRoundTrip(t *testing.T) {
	tab := newTestTable()
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ProfileTable
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.App != tab.App || back.Device != tab.Device || back.Mode != tab.Mode {
		t.Errorf("metadata lost: %+v", back)
	}
	for i := range tab.Stages {
		for _, pu := range tab.PUs {
			if back.Get(i, pu) != tab.Get(i, pu) {
				t.Fatalf("entry (%d,%s) lost", i, pu)
			}
		}
	}
}

func TestProfileTableJSONHandlesNaN(t *testing.T) {
	tab := NewProfileTable("a", "d", Isolated, []string{"x", "y"}, []PUClass{"big"})
	tab.Set(0, "big", 1.5) // leave (1, big) unmeasured
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ProfileTable
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Get(0, "big") != 1.5 {
		t.Error("measured entry lost")
	}
	if !math.IsNaN(back.Get(1, "big")) {
		t.Error("unmeasured entry should round-trip as NaN")
	}
}

func TestProfileTableJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"mode":"warp-speed","stages":[],"pus":[],"latency_seconds":[]}`,
		`{"mode":"isolated","stages":["a"],"pus":["big"],"latency_seconds":[]}`,
		`{"mode":"isolated","stages":["a"],"pus":["big"],"latency_seconds":[[1.0,2.0]]}`,
	}
	for i, c := range cases {
		var tab ProfileTable
		if err := tab.UnmarshalJSON([]byte(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSaveLoadTable(t *testing.T) {
	tab := newTestTable()
	path := t.TempDir() + "/table.json"
	if err := SaveTable(tab, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != tab.App || back.Get(2, "gpu") != tab.Get(2, "gpu") {
		t.Error("file round trip lost data")
	}
	if _, err := LoadTable(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}
