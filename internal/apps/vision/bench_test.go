package vision

import (
	"testing"

	"bettertogether/internal/core"
)

// BenchmarkStages times each stage kernel alone on the default frame
// under core.SerialFor. Every stage reads only the planes its
// predecessors wrote, so after one warm pass each can be repeated on
// the same task.
func BenchmarkStages(b *testing.B) {
	app, err := NewApplication(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	to := app.NewTask()
	for _, s := range app.Stages {
		s.CPU(to, core.SerialFor)
	}
	for _, s := range app.Stages {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.CPU(to, core.SerialFor)
			}
		})
	}
}
