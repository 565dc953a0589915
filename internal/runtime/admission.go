package runtime

import (
	"fmt"
	"math"
	"slices"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/soc"
	"bettertogether/internal/solver"
)

// Resource names used in AdmissionError.Resource.
const (
	// ResourceBandwidth is the shared DRAM memory-controller bandwidth.
	ResourceBandwidth = "dram-bandwidth"
	// ResourceCores is the device's total PU core count.
	ResourceCores = "pu-cores"
)

// AdmissionError reports a rejected Admit: the newcomer's projected
// steady-state demand, stacked on every resident session's, would push a
// device resource past the runtime's configured headroom. Callers detect
// it with errors.As and can retry after a resident exits.
//
// Admit refuses at the first of three points that decides: the floor,
// before planning (Floor); the candidate pool, before autotuning (Pool >
// 0); or the autotuned schedule, after planning (neither). Each earlier
// refusal is one the later checks would make too, so the point changes
// the error's text and what it reports, never whether Admit refuses.
type AdmissionError struct {
	// App is the rejected application's name.
	App string
	// Resource names what ran out (ResourceBandwidth, ResourceCores).
	Resource string
	// Demand is the projected total including the newcomer; Capacity is
	// the headroom-scaled device limit it exceeded. Units are GB/s for
	// bandwidth and cores for cores.
	Demand, Capacity float64
	// Floor marks a refusal decided before planning: even the schedule
	// with the smallest claim on Resource over the newcomer's whole
	// schedule space does not fit, so Demand stacks that minimum rather
	// than a planned schedule's demand.
	Floor bool
	// Pool, when positive, marks a refusal decided before autotuning:
	// none of the Pool candidate schedules the planner ranked fits, so
	// autotuning, which picks one of them, could not change the outcome.
	// Resource and Demand are the top-ranked candidate's.
	Pool int
}

// Error implements error.
func (e *AdmissionError) Error() string {
	switch {
	case e.Floor:
		return fmt.Sprintf("runtime: admission of %q rejected before planning: minimum %s demand over all schedules %.2f exceeds capacity %.2f",
			e.App, e.Resource, e.Demand, e.Capacity)
	case e.Pool > 0:
		return fmt.Sprintf("runtime: admission of %q rejected before autotuning: none of %d candidate schedules fits; the top-ranked one's %s demand %.2f exceeds capacity %.2f",
			e.App, e.Pool, e.Resource, e.Demand, e.Capacity)
	}
	return fmt.Sprintf("runtime: admission of %q rejected: projected %s demand %.2f exceeds capacity %.2f",
		e.App, e.Resource, e.Demand, e.Capacity)
}

// demand is a plan's projected standing claim on shared device resources.
type demand struct {
	// bwGBs is projected DRAM draw; cores counts claimed PU cores.
	bwGBs, cores float64
}

// plus sums two claims.
func (d demand) plus(o demand) demand {
	return demand{bwGBs: d.bwGBs + o.bwGBs, cores: d.cores + o.cores}
}

// stageIntensity returns stage s's memory intensity on class pu: the
// load it publishes to co-runners while executing (Device.Intensity).
type stageIntensity func(s int, pu core.PUClass) float64

// appIntensity reads stage intensities off app's stage costs on dev.
func appIntensity(app *core.Application, dev *soc.Device) stageIntensity {
	return func(s int, pu core.PUClass) float64 { return dev.Intensity(app.Stages[s].Cost, pu) }
}

// planIntensity reads stage intensities off a plan's app and device.
func planIntensity(p *pipeline.Plan) stageIntensity { return appIntensity(p.App, p.Device) }

// chunkIntensity is the mean memory intensity of a chunk's stages on its
// PU class — the load the chunk contributes to the interference
// environment while executing.
func chunkIntensity(c core.Chunk, intensity stageIntensity) float64 {
	if c.Len() == 0 {
		return 0
	}
	sum := 0.0
	for s := c.Start; s < c.End; s++ {
		sum += intensity(s, c.PU)
	}
	return sum / float64(c.Len())
}

// scheduleDemand projects a schedule's steady-state resource claim on
// dev; it is the one demand arithmetic, shared by planDemand, the
// admission floor and the candidate pool check. In a full pipeline
// every chunk is busy simultaneously, so per-chunk draws sum: each
// chunk claims its class's cores outright and a bandwidth share equal
// to the class's peak draw scaled by the chunk's memory intensity.
//
// Schedule contiguity (C2, enforced by core.Schedule.Validate) means a
// valid plan never maps two chunks to one PU class, but hand-built Plan
// literals can violate it — and without the dedup below such a plan
// would claim the class's cores once per chunk, inflating projected
// demand until admission wedges shut. Defensively, a class's cores are
// claimed once, at its first chunk, and its chunk intensities sum with
// saturation at 1 (the Env.Add rule: co-runners cannot draw more than
// full bandwidth). Nothing is allocated.
func scheduleDemand(dev *soc.Device, chunks []core.Chunk, intensity stageIntensity) demand {
	var d demand
	for j, c := range chunks {
		if slices.ContainsFunc(chunks[:j], func(o core.Chunk) bool { return o.PU == c.PU }) {
			continue
		}
		share := 0.0
		for _, o := range chunks[j:] {
			if o.PU != c.PU {
				continue
			}
			if share += chunkIntensity(o, intensity); share > 1 {
				share = 1
			}
		}
		pu := dev.PU(c.PU)
		d.cores += float64(pu.Cores)
		d.bwGBs += pu.MemBWGBs * share
	}
	return d
}

// planDemand projects a plan's steady-state resource claim.
func planDemand(p *pipeline.Plan) demand {
	return scheduleDemand(p.Device, p.Chunks, planIntensity(p))
}

// demandFloor is the smallest claim any schedule the planner can return
// for app makes on dev, per resource: the minimum bandwidth and the
// minimum cores over the whole contiguous schedule space (the two minima
// may come from different schedules). It walks the space with the
// solver's pass — the space the planner ranks — and prices each
// schedule with scheduleDemand, so each minimum is bit for bit the
// smallest planDemand in the space. Intensities the solver refuses as a
// table (negative, NaN or infinite) yield a floor of −Inf, which never
// refuses: the planned check alone decides.
func demandFloor(app *core.Application, dev *soc.Device) demand {
	classes := dev.Classes()
	n, m := len(app.Stages), len(classes)
	// The pass's table holds the stage intensities; the floor reads
	// them back through the schedule's assignment (stage s runs on class
	// assign[s]) and ignores the pass's chunk sums.
	table := make([][]float64, n)
	for s := range table {
		table[s] = make([]float64, m)
		for c, pu := range classes {
			table[s][c] = dev.Intensity(app.Stages[s].Cost, pu)
		}
	}
	var assign []int
	intensity := func(s int, _ core.PUClass) float64 { return table[s][assign[s]] }
	chunks := make([]core.Chunk, 0, m)
	floor := demand{bwGBs: math.Inf(1), cores: math.Inf(1)}
	err := solver.Each(&solver.Problem{N: n, M: m, Time: table}, func(sol *solver.Solution) bool {
		assign = sol.Assign
		chunks = chunks[:0]
		for i := 0; i < n; {
			j := i + 1
			for j < n && assign[j] == assign[i] {
				j++
			}
			chunks = append(chunks, core.Chunk{PU: classes[assign[i]], Start: i, End: j})
			i = j
		}
		d := scheduleDemand(dev, chunks, intensity)
		if d.bwGBs < floor.bwGBs {
			floor.bwGBs = d.bwGBs
		}
		if d.cores < floor.cores {
			floor.cores = d.cores
		}
		return true
	})
	if err != nil {
		return demand{bwGBs: math.Inf(-1), cores: math.Inf(-1)}
	}
	return floor
}

// addPlanEnv folds a plan's steady-state interference contribution into
// env: one load per chunk on its PU class (contiguity means classes are
// distinct within one plan; across plans Env.Add saturates).
func addPlanEnv(env soc.Env, p *pipeline.Plan) {
	intensity := planIntensity(p)
	for _, c := range p.Chunks {
		env.Add(c.PU, soc.Load{MemIntensity: chunkIntensity(c, intensity)})
	}
}
