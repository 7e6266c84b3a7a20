package srm

import (
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
)

// BenchmarkStage is the in-process rung of the serving ladder: one warm
// Stage+Release of a resident bundle on a cache-resident OptFileBundle, the
// configuration srmd serves with. /nospans runs with no recorder; /spans
// stages under a live root span, so the admit leg is recorded on every
// call. The timed loop is a policy hit with no store, so its allocations
// are the SRM's own: the gate in BENCH_core.json holds them fixed.
func BenchmarkStage(b *testing.B) {
	run := func(b *testing.B, rec *span.Recorder) {
		cat := bundle.NewCatalog()
		for i := 0; i < 8; i++ {
			cat.AddAnonymous(10)
		}
		pol := policy.WrapOptFileBundle(core.New(100, cat.SizeFunc(), core.Options{
			History: history.Config{Truncation: history.CacheResident},
		}))
		s := New(pol, cat).WithSpans(rec)
		root := rec.StartRequest(span.Context{}, span.OpStage)
		defer root.Finish(span.ErrNone)
		ctx := root.Context()
		bnd := bundle.New(1, 3, 4, 6)
		stage := func() {
			rel, _, err := s.StageCtx(ctx, bnd)
			if err != nil {
				b.Fatal(err)
			}
			rel()
		}
		stage() // warm: load the bundle and grow the policy's scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage()
		}
	}
	b.Run("nospans", func(b *testing.B) { run(b, nil) })
	b.Run("spans", func(b *testing.B) {
		run(b, span.New(span.Options{SlowThreshold: time.Hour, SampleEvery: 1 << 62}))
	})
}
