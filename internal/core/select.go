// Package core implements the paper's primary contribution: the
// OptCacheSelect greedy selection heuristic (Algorithm 1) and the
// OptFileBundle cache replacement policy (Algorithm 2).
//
// OptCacheSelect solves (approximately) the File-Bundle Caching problem:
// given requests r with values v(r) over files f with sizes s(f), pick a
// subset of requests of maximum total value whose files fit in a cache of
// size s(C). The greedy ranks requests by adjusted relative value
//
//	v'(r) = v(r) / Σ_{f ∈ F(r)} s'(f),   s'(f) = s(f)/d(f)
//
// where d(f) is the number of distinct requests needing f. Theorem 4.1 in
// the paper shows the greedy (with the Step-3 single-request guard) achieves
// at least ½(1 − e^{−1/d}) of the optimal value, and the k-seeded variant
// (SelectSeeded) achieves (1 − e^{−1/d}).
package core

import (
	"math"
	"sort"

	"fbcache/internal/bundle"
	"fbcache/internal/invariant"
)

// Candidate is one request offered to the selection algorithm.
type Candidate struct {
	Bundle bundle.Bundle
	Value  float64
}

// SelectOptions configures OptCacheSelect.
type SelectOptions struct {
	// SizeOf reports file sizes. Required.
	SizeOf bundle.SizeFunc
	// DegreeOf reports d(f), the number of distinct requests using f.
	// Values below 1 are clamped to 1. Required.
	DegreeOf func(bundle.FileID) int
	// Resort enables the paper's "Note" improvement: after each pick, files
	// already selected cost zero and the remaining candidates re-rank.
	// When false the literal Algorithm 1 runs: a single static ranking, each
	// request charged its full bundle size (this is the variant analyzed in
	// Appendix A).
	Resort bool
	// Free lists files that occupy no selection budget (their space is
	// reserved elsewhere — OptFileBundle reserves the incoming request's
	// bundle this way).
	Free bundle.Bundle
}

// Selection is the outcome of OptCacheSelect.
type Selection struct {
	// Chosen holds indices into the candidate slice, in selection order.
	Chosen []int
	// Files is the union of the chosen candidates' files (Free files
	// included when they appear in chosen bundles).
	Files bundle.Bundle
	// Value is the total value of the chosen candidates.
	Value float64
	// SingleWinner reports that Step 3 replaced the greedy set with the
	// single highest-value request.
	SingleWinner bool
	// BudgetUsed is the cache space charged against capacity.
	BudgetUsed bundle.Size
}

// Select runs OptCacheSelect over cands with the given capacity.
// Candidates whose charged size exceeds the capacity are skipped, exactly as
// Step 2 skips requests with insufficient space.
func Select(cands []Candidate, capacity bundle.Size, opts SelectOptions) Selection {
	var s resortState
	return selectScratch(&s, cands, capacity, opts)
}

// selectScratch is Select against caller-held scratch, so per-admission
// callers (OptFileBundle) pay no selector allocations in steady state.
func selectScratch(s *resortState, cands []Candidate, capacity bundle.Size, opts SelectOptions) Selection {
	if opts.SizeOf == nil || opts.DegreeOf == nil {
		panic("core: SelectOptions requires SizeOf and DegreeOf")
	}
	if capacity < 0 {
		capacity = 0
	}
	var sel Selection
	if opts.Resort {
		sel = s.run(cands, capacity, opts, nil)
	} else {
		sel = selectLiteral(cands, capacity, opts)
	}
	if invariant.Enabled {
		invariant.Check(sel.BudgetUsed <= capacity,
			"core: selection charged %d bytes against capacity %d",
			sel.BudgetUsed, capacity)
	}
	return sel
}

// SelectSeeded implements the improved-bound variant sketched at the end of
// §4: every subset of up to k candidates is tried as a forced seed, the
// greedy completes each partial solution, and the best candidate solution
// wins. k = 1 or 2 gives the (1 − e^{−1/d}) bound at polynomial cost.
// k <= 0 degenerates to Select. The seeded variant always uses the resort
// greedy for completion.
func SelectSeeded(cands []Candidate, capacity bundle.Size, k int, opts SelectOptions) Selection {
	var s resortState
	return selectSeededScratch(&s, cands, capacity, k, opts)
}

// selectSeededScratch is SelectSeeded against caller-held scratch; one
// resortState serves the unseeded baseline and every seed trial.
func selectSeededScratch(s *resortState, cands []Candidate, capacity bundle.Size, k int, opts SelectOptions) Selection {
	best := cloneSelection(selectScratch(s, cands, capacity, opts))
	if k <= 0 {
		return best
	}
	// Every trial reuses s, so a kept Selection must be deep-copied before
	// the next run overwrites the scratch it aliases.
	consider := func(sel Selection, ok bool) {
		if ok && sel.Value > best.Value {
			best = cloneSelection(sel)
		}
	}
	// k = 1 seeds. selectWithSeeds only reads the seed slice, so one scratch
	// slice serves every trial instead of allocating per iteration.
	seed := make([]int, 2)
	for i := range cands {
		seed[0] = i
		consider(selectWithSeeds(s, cands, capacity, opts, seed[:1]))
	}
	if k >= 2 {
		for i := range cands {
			seed[0] = i
			for j := i + 1; j < len(cands); j++ {
				seed[1] = j
				consider(selectWithSeeds(s, cands, capacity, opts, seed[:2]))
			}
		}
	}
	return best
}

// selectWithSeeds forces the seed candidates into the solution (if they fit)
// and completes greedily. ok is false when the seeds alone overflow capacity.
func selectWithSeeds(s *resortState, cands []Candidate, capacity bundle.Size, opts SelectOptions, seeds []int) (Selection, bool) {
	opts.Resort = true
	sel := s.run(cands, capacity, opts, seeds)
	if sel.Chosen == nil && len(seeds) > 0 {
		return sel, false
	}
	// Verify all seeds made it (they might not fit). Chosen is small (and
	// seeds is ≤ 2 in practice), so a linear scan beats a per-trial map.
	for _, sd := range seeds {
		found := false
		for _, i := range sel.Chosen {
			if i == sd {
				found = true
				break
			}
		}
		if !found {
			return sel, false
		}
	}
	return sel, true
}

// cloneSelection deep-copies a Selection whose Chosen and Files alias
// selector scratch, so it stays valid across later runs on the same state.
// The nil-Chosen seed-failure sentinel is preserved.
func cloneSelection(sel Selection) Selection {
	if sel.Chosen != nil {
		sel.Chosen = append([]int(nil), sel.Chosen...)
	}
	if sel.Files != nil {
		sel.Files = sel.Files.Clone()
	}
	return sel
}

// adjustedDenominator computes Σ s'(f) over files of b not in skip,
// where s'(f) = s(f)/max(d(f),1).
func adjustedDenominator(b bundle.Bundle, opts SelectOptions, skip map[bundle.FileID]bool) float64 {
	var denom float64
	for _, f := range b {
		if skip != nil && skip[f] {
			continue
		}
		d := opts.DegreeOf(f)
		if d < 1 {
			d = 1
		}
		denom += float64(opts.SizeOf(f)) / float64(d)
	}
	return denom
}

// chargedSize computes the real bytes b adds beyond files in skip. It runs
// once per candidate per selection (step-three scan, literal ranking,
// reference rounds), so it must inline into its callers and stay
// allocation- and bounds-check-free.
//
//fbvet:inline hot per-candidate helper; must disappear into callers
//fbvet:noescape
//fbvet:nobce
func chargedSize(b bundle.Bundle, sizeOf bundle.SizeFunc, skip map[bundle.FileID]bool) bundle.Size {
	var total bundle.Size
	for _, f := range b {
		if skip != nil && skip[f] {
			continue
		}
		total += sizeOf(f)
	}
	return total
}

func freeSet(free bundle.Bundle) map[bundle.FileID]bool {
	if len(free) == 0 {
		return nil
	}
	m := make(map[bundle.FileID]bool, len(free))
	for _, f := range free {
		m[f] = true
	}
	return m
}

// selectLiteral is Algorithm 1 as printed: one static sort by v'(r), each
// selected request charged its full (non-Free) bundle size, then the Step-3
// single-request comparison.
func selectLiteral(cands []Candidate, capacity bundle.Size, opts SelectOptions) Selection {
	free := freeSet(opts.Free)
	type ranked struct {
		idx  int
		vrel float64
		size bundle.Size
	}
	order := make([]ranked, 0, len(cands))
	for i, c := range cands {
		denom := adjustedDenominator(c.Bundle, opts, free)
		size := chargedSize(c.Bundle, opts.SizeOf, free)
		vrel := math.Inf(1)
		if denom > 0 {
			vrel = c.Value / denom
		}
		order = append(order, ranked{idx: i, vrel: vrel, size: size})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].vrel > order[b].vrel })
	if invariant.Enabled {
		// Algorithm 1 scans requests in non-increasing v'(r) order; a break in
		// monotonicity here means the ranking comparator is wrong.
		for i := 1; i < len(order); i++ {
			invariant.Check(order[i-1].vrel >= order[i].vrel,
				"core: v'(r) ranking not monotone at position %d: %g before %g",
				i, order[i-1].vrel, order[i].vrel)
		}
	}

	var sel Selection
	files := make(map[bundle.FileID]bool)
	budget := capacity
	for _, r := range order {
		if r.size > budget {
			continue // skip: insufficient space (Step 2)
		}
		budget -= r.size
		sel.BudgetUsed += r.size
		sel.Chosen = append(sel.Chosen, r.idx)
		sel.Value += cands[r.idx].Value
		for _, f := range cands[r.idx].Bundle {
			files[f] = true
		}
	}
	sel.Files = setToBundle(files)
	return applyStepThree(sel, cands, capacity, opts, free)
}

// applyStepThree implements Step 3: the answer is the max of the greedy set
// and the single highest-value request that fits by itself.
func applyStepThree(sel Selection, cands []Candidate, capacity bundle.Size, opts SelectOptions, free map[bundle.FileID]bool) Selection {
	bestIdx, bestVal := -1, 0.0
	for i, c := range cands {
		if c.Value <= bestVal {
			continue
		}
		if chargedSize(c.Bundle, opts.SizeOf, free) > capacity {
			continue
		}
		bestIdx, bestVal = i, c.Value
	}
	if bestIdx >= 0 && bestVal > sel.Value {
		files := make(map[bundle.FileID]bool)
		for _, f := range cands[bestIdx].Bundle {
			files[f] = true
		}
		return Selection{
			Chosen:       []int{bestIdx},
			Files:        setToBundle(files),
			Value:        bestVal,
			SingleWinner: true,
			BudgetUsed:   chargedSize(cands[bestIdx].Bundle, opts.SizeOf, free),
		}
	}
	return sel
}

func setToBundle(set map[bundle.FileID]bool) bundle.Bundle {
	out := make([]bundle.FileID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	// Sort before handing the keys on: map iteration order is randomized, and
	// downstream consumers (eviction keep-sets, prefetch order) must see the
	// same sequence on every run.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return bundle.FromSlice(out)
}
