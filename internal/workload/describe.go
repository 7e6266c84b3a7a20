package workload

import (
	"fmt"
	"io"
	"sort"

	"fbcache/internal/bundle"
	"fbcache/internal/stats"
)

// Description summarizes a workload — the §5.1/§5.2 parameters as actually
// realized, for trace inspection (fbtrace workload) and experiment logs.
type Description struct {
	Files      int
	TotalBytes bundle.Size
	FileSize   stats.Summary

	Requests    int
	BundleFiles stats.Summary
	BundleBytes stats.Summary
	MaxDegree   int // most requests sharing one file (Theorem 4.1's d)
	SharedFiles int // files used by >= 2 pooled requests

	Jobs          int
	DistinctJobs  int     // distinct requests actually referenced
	TopShare      float64 // fraction of jobs going to the most popular request
	Top10Share    float64 // fraction going to the 10 most popular
	CacheRequests float64 // reference cache size in mean requests
}

// Describe computes summary statistics of w.
func Describe(w *Workload) Description {
	var d Description
	d.Files = w.Catalog.Len()
	for _, f := range w.Catalog.Files() {
		d.TotalBytes += f.Size
		d.FileSize.Add(float64(f.Size))
	}

	d.Requests = len(w.Requests)
	sizeOf := w.Catalog.SizeFunc()
	degree := make(map[bundle.FileID]int)
	for _, r := range w.Requests {
		d.BundleFiles.Add(float64(r.Len()))
		d.BundleBytes.Add(float64(r.TotalSize(sizeOf)))
		for _, f := range r {
			degree[f]++
		}
	}
	for _, deg := range degree {
		if deg > d.MaxDegree {
			d.MaxDegree = deg
		}
		if deg >= 2 {
			d.SharedFiles++
		}
	}

	d.Jobs = len(w.Jobs)
	counts := make(map[int]int)
	for _, j := range w.Jobs {
		counts[j]++
	}
	d.DistinctJobs = len(counts)
	if d.Jobs > 0 {
		sorted := make([]int, 0, len(counts))
		for _, c := range counts {
			sorted = append(sorted, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		d.TopShare = float64(sorted[0]) / float64(d.Jobs)
		top10 := 0
		for i := 0; i < len(sorted) && i < 10; i++ {
			top10 += sorted[i]
		}
		d.Top10Share = float64(top10) / float64(d.Jobs)
	}
	d.CacheRequests = w.CacheSizeInRequests()
	return d
}

// Render writes the description as aligned text.
func (d Description) Render(w io.Writer) {
	fmt.Fprintf(w, "files              %d (%v total)\n", d.Files, d.TotalBytes)
	fmt.Fprintf(w, "file size          mean %v, min %v, max %v\n",
		bundle.Size(d.FileSize.Mean()), bundle.Size(d.FileSize.Min()), bundle.Size(d.FileSize.Max()))
	fmt.Fprintf(w, "pooled requests    %d\n", d.Requests)
	fmt.Fprintf(w, "bundle size        mean %.2f files / %v\n",
		d.BundleFiles.Mean(), bundle.Size(d.BundleBytes.Mean()))
	fmt.Fprintf(w, "file sharing       max degree d=%d, %d files shared by >=2 requests\n",
		d.MaxDegree, d.SharedFiles)
	fmt.Fprintf(w, "jobs               %d over %d distinct requests\n", d.Jobs, d.DistinctJobs)
	fmt.Fprintf(w, "popularity         top request %.1f%%, top-10 %.1f%% of jobs\n",
		100*d.TopShare, 100*d.Top10Share)
	fmt.Fprintf(w, "reference cache    ~%.1f mean requests\n", d.CacheRequests)
}
