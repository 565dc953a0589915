package runtime

import (
	"fmt"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

// benchChurnRound is one admit-admit-drain cycle — the unit of work the
// churn scenario repeats. Session seeds do not enter planning, so the
// cache keys recur across iterations, which is exactly the regime the
// cache is built for. Applications are built once by the caller: app
// construction (weight generation) is not part of the admission path.
func benchChurnRound(b *testing.B, rt *Runtime, apps []*core.Application, round int) {
	b.Helper()
	sessions := make([]*Session, 0, len(apps))
	for i, app := range apps {
		s, err := rt.Admit(app, AdmitOptions{
			Name:  fmt.Sprintf("r%d-%d", round, i),
			Tasks: 4, WaveTasks: 4,
			Seed: int64(i) * 101,
		})
		if err != nil {
			b.Fatalf("round %d: %v", round, err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		if res := s.Wait(); res.Err != nil {
			b.Fatalf("round %d: %v", round, res.Err)
		}
	}
}

// BenchmarkAdmitChurn measures the admission-to-plan-landed path under
// churn, cache off vs on. It reports wall-clock only; the cache's
// promise, that a warm admission runs no planning, is pinned in exact
// counts by TestCacheHitSchedulesByteIdentical.
func BenchmarkAdmitChurn(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cache *schedcache.Cache
	}{
		{"cache=off", nil},
		{"cache=on", schedcache.New(schedcache.DefaultCapacity)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dev, err := soc.DeviceByName("pixel7a")
			if err != nil {
				b.Fatal(err)
			}
			apps := make([]*core.Application, 0, 2)
			for _, name := range []string{"octree", "alexnet-sparse"} {
				app, err := btapps.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				apps = append(apps, app)
			}
			rt, err := New(Config{Device: dev, BWHeadroom: 8, CoreHeadroom: 8, Cache: mode.cache})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchChurnRound(b, rt, apps, i)
			}
			b.StopTimer()
			if mode.cache != nil {
				st := mode.cache.Stats()
				b.ReportMetric(float64(st.Hits), "hits")
				b.ReportMetric(float64(st.Misses), "misses")
			}
		})
	}
}
