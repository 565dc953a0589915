package octree

import (
	"testing"

	"bettertogether/internal/core"
)

// BenchmarkStages times each stage kernel alone on the default uniform
// frame under core.SerialFor. Stages sort and compact in place, so each
// iteration rebuilds the stage's input from a fresh frame with the
// timer stopped.
func BenchmarkStages(b *testing.B) {
	app := NewApplication(0, UniformGen{})
	to := app.NewTask()
	for k, s := range app.Stages {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				to.Reset(0)
				for _, p := range app.Stages[:k] {
					p.CPU(to, core.SerialFor)
				}
				b.StartTimer()
				s.CPU(to, core.SerialFor)
			}
		})
	}
}
