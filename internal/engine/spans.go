package engine

import "maest/internal/engine/distmemo"

// memoSpans routes the standard-cell kernel's Eq. 2–3 row-span and
// Eq. 11 feed-through lookups through the process-wide distribution
// memo.  distmemo caches and returns exactly what internal/prob
// computed for the same arguments, so results are bit-identical with
// the memo hot or cold; it only changes how often prob actually runs.
type memoSpans struct{}

func (memoSpans) ExpectedRowSpan(n, d int) (float64, error) { return distmemo.ExpectedRowSpan(n, d) }
func (memoSpans) TracksForNet(n, d int) (int, error)        { return distmemo.TracksForNet(n, d) }
func (memoSpans) FeedThroughsCeil(h int, p float64) (int, error) {
	return distmemo.FeedThroughsCeil(h, p)
}
