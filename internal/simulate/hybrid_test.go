package simulate

import (
	"testing"

	"fbcache/internal/workload"
)

func TestRunHybridPureBundleMatchesRun(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 800)
	p1 := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	col, err := Run(w, p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunHybrid(w, p2, HybridOptions{BundleFraction: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.PerFileJobs != 0 || st.BundleJobs != 800 {
		t.Fatalf("job split = %d/%d", st.BundleJobs, st.PerFileJobs)
	}
	if got, want := st.Combined.ByteMissRatio(), col.ByteMissRatio(); got != want {
		t.Errorf("pure-bundle hybrid %.6f != Run %.6f", got, want)
	}
}

func TestRunHybridPurePerFile(t *testing.T) {
	w := smallWorkload(t, workload.Zipf, 600)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunHybrid(w, checked(t, p), HybridOptions{BundleFraction: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.BundleJobs != 0 || st.PerFileJobs != 600 {
		t.Fatalf("job split = %d/%d", st.BundleJobs, st.PerFileJobs)
	}
	bmr := st.Combined.ByteMissRatio()
	if bmr <= 0 || bmr > 1 {
		t.Errorf("byte miss = %v", bmr)
	}
	// Bytes requested must equal the bundle totals regardless of model.
	if st.Combined.BytesRequested() == 0 {
		t.Error("no bytes accounted")
	}
}

func TestRunHybridMixSplitsJobs(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 1000)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	st, err := RunHybrid(w, p, HybridOptions{BundleFraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.BundleJobs+st.PerFileJobs != 1000 {
		t.Fatalf("lost jobs: %d + %d", st.BundleJobs, st.PerFileJobs)
	}
	// Roughly half each (binomial, generous bounds).
	if st.BundleJobs < 400 || st.BundleJobs > 600 {
		t.Errorf("bundle jobs = %d, expected ~500", st.BundleJobs)
	}
	if st.Bundle.Jobs() != st.BundleJobs || st.PerFile.Jobs() != st.PerFileJobs {
		t.Error("per-class collectors inconsistent")
	}
}

func TestRunHybridPerFileJobHitSemantics(t *testing.T) {
	// A per-file job is a request-hit only if every task hit. Warm the
	// cache with the bundle, then run per-file: all tasks hit.
	w := smallWorkload(t, workload.Uniform, 10)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	b := w.Requests[w.Jobs[0]]
	p.Admit(b)
	w2 := *w
	w2.Jobs = []int{w.Jobs[0]}
	st, err := RunHybrid(&w2, p, HybridOptions{BundleFraction: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PerFile.HitRatio() != 1 {
		t.Errorf("warm per-file job hit ratio = %v, want 1", st.PerFile.HitRatio())
	}
}

func TestRunHybridValidation(t *testing.T) {
	w := smallWorkload(t, workload.Uniform, 10)
	p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
	if _, err := RunHybrid(nil, p, HybridOptions{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := RunHybrid(w, p, HybridOptions{BundleFraction: 1.5}); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestRunHybridBundleServiceBeatsPerFileOnByteMiss(t *testing.T) {
	// Bundle-at-a-time gives the policy full combination information;
	// one-file-at-a-time starves it (every request is a singleton, so
	// request values never capture co-access). Expect the pure-bundle mix
	// to achieve an equal or lower byte miss ratio.
	w := smallWorkload(t, workload.Zipf, 2000)
	run := func(frac float64) float64 {
		p := optFactory()(w.Spec.CacheSize, w.Catalog.SizeFunc())
		st, err := RunHybrid(w, p, HybridOptions{BundleFraction: frac, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return st.Combined.ByteMissRatio()
	}
	pure, perFile := run(1), run(0)
	t.Logf("byte miss: bundle-service=%.4f per-file-service=%.4f", pure, perFile)
	if pure > perFile*1.05 {
		t.Errorf("bundle service %.4f clearly worse than per-file %.4f", pure, perFile)
	}
}

func TestServiceModelString(t *testing.T) {
	if BundleAtATime.String() != "bundle-at-a-time" ||
		OneFileAtATime.String() != "one-file-at-a-time" ||
		ServiceModel(9).String() != "ServiceModel(9)" {
		t.Error("ServiceModel.String broken")
	}
}
