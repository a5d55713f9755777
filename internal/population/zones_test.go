package population

import "testing"

// BenchmarkBuildZones builds the authoritative zone of a world carrying
// all nine scenario packs at 8% (scale 0.005, seed 1), generated before
// the timer starts. The zone's owner map is sized before the build, so
// the allocation count is exact, and CI gates it against BENCH_pr10.json.
func BenchmarkBuildZones(b *testing.B) {
	spec := DefaultSpec()
	spec.Seed, spec.Scale = 1, 0.005
	for _, pack := range PackNames() {
		spec.Scenarios = append(spec.Scenarios, ScenarioPackRef{Name: pack, Weight: 0.08})
	}
	w := MustGenerate(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BuildZones()
	}
}
