package core

import (
	"fmt"
	"slices"
	"strings"
)

// Schedule maps each pipeline stage to a PU class. It is the output of
// BT-Optimizer and the input of BT-Implementer. A valid schedule
// satisfies the paper's contiguity constraint C2: all stages assigned to
// one class form a single contiguous run (a Chunk), so each class hosts
// at most one dispatcher.
type Schedule struct {
	// Assign[i] is the PU class of stage i.
	Assign []PUClass
}

// Chunk is a maximal contiguous run of stages on one PU class — the basic
// unit of scheduling and dispatch (paper Sec. 3.1).
type Chunk struct {
	// PU is the class executing the chunk.
	PU PUClass
	// Start and End delimit the stage range [Start, End).
	Start, End int
}

// Len returns the number of stages in the chunk.
func (c Chunk) Len() int { return c.End - c.Start }

// NewUniformSchedule assigns every stage to a single class — the
// homogeneous baselines of Sec. 5.1 (all-GPU, all-big).
func NewUniformSchedule(n int, pu PUClass) Schedule {
	assign := make([]PUClass, n)
	for i := range assign {
		assign[i] = pu
	}
	return Schedule{Assign: assign}
}

// Chunks splits the schedule into its maximal contiguous runs in pipeline
// order.
func (s Schedule) Chunks() []Chunk {
	var chunks []Chunk
	for i := 0; i < len(s.Assign); {
		j := i
		for j < len(s.Assign) && s.Assign[j] == s.Assign[i] {
			j++
		}
		chunks = append(chunks, Chunk{PU: s.Assign[i], Start: i, End: j})
		i = j
	}
	return chunks
}

// Validate checks the schedule against the constraint system: one class
// per stage (C1 holds by construction of Assign), every class in the
// allowed set, and contiguity (C2) — no class may appear in two separate
// runs.
func (s Schedule) Validate(nStages int, allowed []PUClass) error {
	if len(s.Assign) != nStages {
		return fmt.Errorf("core: schedule covers %d stages, application has %d",
			len(s.Assign), nStages)
	}
	// Walk the chunks without building them: each run of one class
	// starts a chunk, and a class that already appeared earlier hosts a
	// second one.
	for i, pu := range s.Assign {
		if i > 0 && s.Assign[i-1] == pu {
			continue
		}
		if !slices.Contains(allowed, pu) {
			return fmt.Errorf("core: schedule uses unknown PU class %q", pu)
		}
		if slices.Contains(s.Assign[:i], pu) {
			return fmt.Errorf("core: contiguity violated: class %q hosts two separate chunks", pu)
		}
	}
	return nil
}

// Equal reports whether two schedules assign identically.
func (s Schedule) Equal(o Schedule) bool {
	if len(s.Assign) != len(o.Assign) {
		return false
	}
	for i := range s.Assign {
		if s.Assign[i] != o.Assign[i] {
			return false
		}
	}
	return true
}

// String renders the schedule as, e.g., "[big big gpu gpu gpu little]".
func (s Schedule) String() string {
	parts := make([]string, len(s.Assign))
	for i, a := range s.Assign {
		parts[i] = string(a)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Key returns a compact canonical form usable as a map key for blocking
// clauses and deduplication.
func (s Schedule) Key() string { return s.String() }
