package experiments

import (
	"bettertogether/internal/core"
	"bettertogether/internal/report"
	"bettertogether/internal/soc"
)

// BaselineCell is one device-app entry of Table 3: homogeneous CPU
// (big-cores-only) and GPU baselines in seconds per task.
type BaselineCell struct {
	CPU, GPU float64
}

// Best returns the faster baseline.
func (c BaselineCell) Best() float64 {
	if c.CPU < c.GPU {
		return c.CPU
	}
	return c.GPU
}

// Table3Result holds the baseline grid.
type Table3Result struct {
	Devices []string
	Apps    []string
	// Cells[d][a] corresponds to Devices[d] × Apps[a].
	Cells [][]BaselineCell
}

// Cell returns the entry for the named device and app.
func (r Table3Result) Cell(device, app string) BaselineCell {
	for d, dn := range r.Devices {
		if dn != device {
			continue
		}
		for a, an := range r.Apps {
			if an == app {
				return r.Cells[d][a]
			}
		}
	}
	return BaselineCell{}
}

// Table3 measures the homogeneous baselines: every stage on the big CPU
// cluster, and every stage on the GPU (paper Sec. 5.1: "For the CPU
// baselines, we use only the big cores, as they consistently deliver the
// best performance"). The device×app grid fans across the suite's worker
// pool; aggregation and rendering stay serial, so the report is
// byte-identical at any worker count.
func (s *Suite) Table3() (Table3Result, string, error) {
	res := Table3Result{}
	for _, d := range s.Devices {
		res.Devices = append(res.Devices, d.Name)
	}
	for _, a := range s.Apps {
		res.Apps = append(res.Apps, a.Name)
	}

	na := len(s.Apps)
	grid := make([]BaselineCell, len(s.Devices)*na)
	if err := s.forEach(len(grid), func(i int) error {
		dev, app := s.Devices[i/na], s.Apps[i%na]
		cpu, err := s.measureUniform(app, dev, core.ClassBig, "table3-cpu")
		if err != nil {
			return err
		}
		gpu, err := s.measureUniform(app, dev, dev.GPUClass(), "table3-gpu")
		if err != nil {
			return err
		}
		grid[i] = BaselineCell{CPU: cpu, GPU: gpu}
		return nil
	}); err != nil {
		return res, "", err
	}

	t := report.NewTable("Table 3: raw baseline latency (ms per task), CPU | GPU",
		append([]string{"Device"}, labelApps(res.Apps)...)...)
	for di, dev := range s.Devices {
		row := make([]BaselineCell, len(s.Apps))
		cells := []string{DeviceLabel(dev.Name)}
		for ai := range s.Apps {
			c := grid[di*na+ai]
			row[ai] = c
			cell := ""
			if c.GPU < c.CPU {
				cell = report.Ms(c.CPU) + " | *" + report.Ms(c.GPU)
			} else {
				cell = "*" + report.Ms(c.CPU) + " | " + report.Ms(c.GPU)
			}
			cells = append(cells, cell)
		}
		res.Cells = append(res.Cells, row)
		t.AddRow(cells...)
	}
	body := t.Render() + "(* marks the faster baseline)\n"
	return res, report.Section("Table 3: homogeneous baselines", body), nil
}

// measureUniform runs the uniform schedule — the all-GPU and
// all-big-CPU comparisons of Sec. 5.1 — through the standard measurement
// protocol with suite-controlled seeding.
func (s *Suite) measureUniform(app *core.Application, dev *soc.Device, pu core.PUClass, purpose string) (float64, error) {
	return s.Measure(app, dev, core.NewUniformSchedule(len(app.Stages), pu), purpose)
}

func labelApps(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = AppLabel(n)
	}
	return out
}
