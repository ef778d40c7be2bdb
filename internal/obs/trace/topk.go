package trace

import "sort"

// hotItem is one space-saving sketch slot.
type hotItem struct {
	key   uint64
	count uint64
	err   uint64
}

// sketch is a space-saving top-K frequency sketch (Metwally et al.'s
// stream-summary, flattened): at most k tracked items; an untracked
// arrival evicts the current minimum, inheriting its count as the new
// item's overestimation bound. With k slots the count error is bounded
// by N/k over N offers, which is ample for "which keys are hot" — the
// question the contention profiler answers, not exact frequencies.
//
// Counts decay by halving every decayEvery offers so the hot set
// follows workload shift instead of being dominated by history. The
// sketch is not concurrency-safe; callers wrap it in a mutex
// (shardSketch). Offers happen only for sampled operations, so a
// linear scan over k<=64 slots is cheaper than any pointer-chasing
// structure and keeps the hot path allocation-free.
type sketch struct {
	items      []hotItem
	offers     uint64
	decayEvery uint64
}

// init sizes the sketch; decayEvery <= 0 disables decay.
func (s *sketch) init(k int, decayEvery int) {
	s.items = make([]hotItem, 0, k)
	if decayEvery > 0 {
		s.decayEvery = uint64(decayEvery)
	}
}

// offer counts one arrival of key.
//
//optiql:noalloc
func (s *sketch) offer(key uint64) {
	s.offers++
	if s.decayEvery != 0 && s.offers%s.decayEvery == 0 {
		s.decay()
	}
	minAt := -1
	minCount := ^uint64(0)
	for i := range s.items {
		it := &s.items[i]
		if it.key == key {
			it.count++
			return
		}
		if it.count < minCount {
			minAt = i
			minCount = it.count
		}
	}
	if len(s.items) < cap(s.items) {
		s.items = append(s.items, hotItem{key: key, count: 1})
		return
	}
	// Space-saving eviction: the newcomer takes over the minimum slot
	// and inherits its count as the overestimation bound.
	it := &s.items[minAt]
	it.key = key
	it.err = minCount
	it.count = minCount + 1
}

// decay halves every count (and error bound), dropping slots that
// reach zero, in place.
//
//optiql:noalloc
func (s *sketch) decay() {
	w := 0
	for i := range s.items {
		c := s.items[i].count / 2
		if c == 0 {
			continue
		}
		s.items[w] = hotItem{key: s.items[i].key, count: c, err: s.items[i].err / 2}
		w++
	}
	s.items = s.items[:w]
}

// ranked copies the sketch out, hottest first. Cold path (snapshots).
func (s *sketch) ranked() []HotItem {
	if len(s.items) == 0 {
		return nil
	}
	out := make([]HotItem, len(s.items))
	for i, it := range s.items {
		out[i] = HotItem{Key: it.key, Count: it.count, Err: it.err}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// rank sorts a merged key->item map, hottest first, capped at k.
func rank(m map[uint64]HotItem, k int) []HotItem {
	if len(m) == 0 {
		return nil
	}
	out := make([]HotItem, 0, len(m))
	for _, it := range m {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sortSpans orders spans by start time (stable across buffers).
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
}
