// Quickstart: define a small custom streaming application against the
// public API, let BetterTogether profile and schedule it for a target
// SoC, and execute it both on the simulated device and for real with the
// concurrent dispatcher/queue engine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"bettertogether/pkg/bt"
)

// payload holds one streaming record's buffers: a signal, its smoothed
// form, and a histogram — all pre-allocated, as TaskObjects require.
type payload struct {
	signal   *bt.UsmBuffer[float64]
	smoothed *bt.UsmBuffer[float64]
	hist     *bt.UsmBuffer[int64]
}

const signalLen = 1 << 14

func newTask() *bt.TaskObject {
	p := &payload{
		signal:   bt.NewUsmBuffer[float64](signalLen),
		smoothed: bt.NewUsmBuffer[float64](signalLen),
		hist:     bt.NewUsmBuffer[int64](64),
	}
	task := bt.NewTaskObject(p, func(t *bt.TaskObject) {
		// Regenerate the input deterministically per stream sequence.
		for i := range p.signal.Data {
			p.signal.Data[i] = math.Sin(float64(t.Seq+1) * float64(i) * 1e-3)
		}
		for i := range p.hist.Data {
			p.hist.Data[i] = 0
		}
	})
	task.Reset(0)
	return task
}

// Three stages: generate-features (regular), smooth (stencil), histogram
// (scatter). Each provides the same Go body for both backends — the
// engine decides lane placement through par, and the simulated device
// decides what it costs.
func buildApp() *bt.Application {
	stages := []bt.Stage{
		{
			Name: "features",
			CPU:  featuresKernel, GPU: featuresKernel,
			Cost: bt.CostSpec{FLOPs: 6 * signalLen, Bytes: 8 * signalLen,
				ParallelFraction: 0.999, Divergence: 0.05, Irregularity: 0.05,
				WorkItems: signalLen},
		},
		{
			Name: "smooth",
			CPU:  smoothKernel, GPU: smoothKernel,
			Cost: bt.CostSpec{FLOPs: 10 * signalLen, Bytes: 16 * signalLen,
				ParallelFraction: 0.999, Divergence: 0.05, Irregularity: 0.1,
				WorkItems: signalLen},
		},
		{
			Name: "histogram",
			CPU:  histKernel, GPU: histKernel,
			Cost: bt.CostSpec{FLOPs: 4 * signalLen, Bytes: 12 * signalLen,
				ParallelFraction: 0.97, Divergence: 0.6, Irregularity: 0.7,
				WorkItems: signalLen},
		},
	}
	return &bt.Application{Name: "quickstart", Stages: stages, NewTask: newTask}
}

func featuresKernel(t *bt.TaskObject, par bt.ParallelFor) {
	p := t.Payload.(*payload)
	s := p.signal.Data
	par(len(s), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = s[i]*s[i] + 0.5*s[i]
		}
	})
}

func smoothKernel(t *bt.TaskObject, par bt.ParallelFor) {
	p := t.Payload.(*payload)
	in, out := p.signal.Data, p.smoothed.Data
	par(len(in), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc, n := 0.0, 0
			for d := -2; d <= 2; d++ {
				if j := i + d; j >= 0 && j < len(in) {
					acc += in[j]
					n++
				}
			}
			out[i] = acc / float64(n)
		}
	})
}

func histKernel(t *bt.TaskObject, par bt.ParallelFor) {
	p := t.Payload.(*payload)
	in, hist := p.smoothed.Data, p.hist.Data
	// Band-local histograms merged serially keep the kernel
	// deterministic under any worker count.
	const bands = 8
	var local [bands][64]int64
	par(bands, func(bLo, bHi int) {
		for b := bLo; b < bHi; b++ {
			lo, hi := b*len(in)/bands, (b+1)*len(in)/bands
			for _, v := range in[lo:hi] {
				bin := int((v + 2) / 4 * 64)
				if bin < 0 {
					bin = 0
				}
				if bin > 63 {
					bin = 63
				}
				local[b][bin]++
			}
		}
	})
	for b := 0; b < bands; b++ {
		for i := range hist {
			hist[i] += local[b][i]
		}
	}
}

func main() {
	app := buildApp()
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		log.Fatal(err)
	}

	// One call: profile (isolated + interference-heavy), optimize with
	// the gapness filter, autotune the top candidates.
	schedule, err := bt.AutoSchedule(app, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected schedule for %s: %s\n", dev.Label, schedule)

	// Measure on the simulated device against the homogeneous baselines.
	opts := bt.RunOptions{Tasks: 30, Warmup: 5, Seed: 1}
	for _, s := range []struct {
		name string
		sch  bt.Schedule
	}{
		{"BetterTogether", schedule},
		{"all-GPU", bt.NewUniformSchedule(len(app.Stages), bt.ClassGPU)},
		{"all-big-CPU", bt.NewUniformSchedule(len(app.Stages), bt.ClassBig)},
	} {
		plan, err := bt.NewPlan(app, dev, s.sch)
		if err != nil {
			log.Fatal(err)
		}
		r := bt.SimEngine{}.Run(context.Background(), plan, opts)
		fmt.Printf("  %-14s %8.3f ms/task (simulated)\n", s.name, r.PerTask*1e3)
	}

	// Show how the schedule actually overlaps on the device.
	plan, err := bt.NewPlan(app, dev, schedule)
	if err != nil {
		log.Fatal(err)
	}
	tl := &bt.Timeline{}
	bt.SimEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 8, Warmup: 1, Seed: 1, Trace: tl})
	fmt.Println()
	fmt.Print(tl.Gantt(72))

	// And run the real kernels through the concurrent pipeline.
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 50, Warmup: 10})
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	fmt.Printf("\nreal concurrent run: %d tasks, %.3f ms/task wall time\n",
		len(r.Completions), r.PerTask*1e3)
}
