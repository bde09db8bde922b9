package distmemo

// Metamorphic tests against internal/prob: every quantity the memo
// hands out must be bit-identical to calling prob directly — cold,
// warm, and after eviction — because the engine's correctness
// contract (Delta results match recompiles exactly) transitively
// depends on the memo never perturbing a float.

import (
	"math"
	"math/rand"
	"testing"

	"maest/internal/prob"
)

// feedCase is one Eq. 11 input: H routable nets at central-row
// feed-through probability p.
type feedCase struct {
	h int
	p float64
}

// TestRowSpanBitIdentical sweeps randomized (n, D) pairs — including
// the n≈200 regime where the naive Eq. 2 evaluation catastrophically
// cancels and the forward chain matters — and (H, p) pairs from the
// degenerate H = 0, p = 0 and p = 1 ends to H in the thousands, and
// demands exact equality with internal/prob on the cold path and
// again on the memo hit.
func TestRowSpanBitIdentical(t *testing.T) {
	Purge()
	rng := rand.New(rand.NewSource(1988))
	type pair struct{ n, d int }
	pairs := []pair{
		{1, 2}, {2, 2}, {3, 2}, {5, 3}, {10, 10}, {13, 4},
		{200, 2}, {200, 7}, {200, 150}, {200, 200}, {200, 400},
		{211, 3}, {250, 9},
	}
	for i := 0; i < 60; i++ {
		pairs = append(pairs, pair{n: 1 + rng.Intn(220), d: 2 + rng.Intn(20)})
	}
	for _, pc := range pairs {
		wantE, err := prob.ExpectedRowSpan(pc.n, pc.d)
		if err != nil {
			t.Fatalf("(%d,%d): %v", pc.n, pc.d, err)
		}
		wantTracks, err := prob.TracksForNet(pc.n, pc.d)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // cold, then memo hit
			e, err := ExpectedRowSpan(pc.n, pc.d)
			if err != nil {
				t.Fatalf("(%d,%d) round %d: %v", pc.n, pc.d, round, err)
			}
			if math.Float64bits(e) != math.Float64bits(wantE) {
				t.Fatalf("(%d,%d) round %d: E = %g, prob says %g", pc.n, pc.d, round, e, wantE)
			}
			tracks, err := TracksForNet(pc.n, pc.d)
			if err != nil {
				t.Fatal(err)
			}
			if tracks != wantTracks {
				t.Fatalf("(%d,%d) round %d: tracks = %d, prob says %d", pc.n, pc.d, round, tracks, wantTracks)
			}
		}
	}

	feeds := []feedCase{
		{0, 0.3}, {0, 0}, {0, 1}, {17, 0}, {17, 1}, {1, 0.5},
		{2500, 0.5}, {4000, 0.001}, {9999, 2.0 / 9},
	}
	for i := 0; i < 40; i++ {
		p, err := prob.CentralFeedThroughProb(1 + rng.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		feeds = append(feeds, feedCase{h: rng.Intn(3000), p: p})
	}
	for _, fc := range feeds {
		want, err := prob.FeedThroughsCeil(fc.h, fc.p)
		if err != nil {
			t.Fatalf("(%d,%g): %v", fc.h, fc.p, err)
		}
		for round := 0; round < 2; round++ {
			got, err := FeedThroughsCeil(fc.h, fc.p)
			if err != nil {
				t.Fatalf("(%d,%g) round %d: %v", fc.h, fc.p, round, err)
			}
			if got != want {
				t.Fatalf("(%d,%g) round %d: feed-throughs = %d, prob says %d", fc.h, fc.p, round, got, want)
			}
		}
	}
}

func TestRowSpanHitMissAccounting(t *testing.T) {
	Purge()
	h0, m0 := mSpanHits.Value(), mSpanMisses.Value()
	if _, err := ExpectedRowSpan(17, 5); err != nil {
		t.Fatal(err)
	}
	h1, m1 := mSpanHits.Value(), mSpanMisses.Value()
	if m1 != m0+1 || h1 != h0 {
		t.Fatalf("cold lookup moved (hits,misses) by (%d,%d), want (0,1)", h1-h0, m1-m0)
	}
	// The entry memoizes both quantities together: the other quantity
	// at the same (n, D) is a hit, not a second computation.
	if _, err := TracksForNet(17, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedRowSpan(17, 5); err != nil {
		t.Fatal(err)
	}
	h2, m2 := mSpanHits.Value(), mSpanMisses.Value()
	if m2 != m1 || h2 != h1+2 {
		t.Fatalf("warm lookups moved (hits,misses) by (%d,%d), want (2,0)", h2-h1, m2-m1)
	}
}

// TestErrorsNeverCached: defined-error inputs must consult prob every
// time (the memo stores only successful computations) and return the
// same error prob would.
func TestErrorsNeverCached(t *testing.T) {
	Purge()
	_, wantErr := prob.ExpectedRowSpan(0, 2)
	if wantErr == nil {
		t.Fatal("prob accepted n = 0; update this test")
	}
	badFeeds := []feedCase{{-1, 0.5}, {5, -0.1}, {5, 1.5}, {5, math.NaN()}}
	s0, f0 := mSpanMisses.Value(), mFeedMisses.Value()
	for i := 0; i < 2; i++ {
		if _, err := ExpectedRowSpan(0, 2); err == nil {
			t.Fatal("memo accepted n = 0")
		} else if err.Error() != wantErr.Error() {
			t.Fatalf("error rewritten by the memo: %q, want %q", err, wantErr)
		}
		if _, err := TracksForNet(3, 0); err == nil {
			t.Fatal("memo accepted D = 0")
		}
		for _, fc := range badFeeds {
			_, want := prob.FeedThroughsCeil(fc.h, fc.p)
			if want == nil {
				t.Fatalf("prob accepted (%d,%g); update this test", fc.h, fc.p)
			}
			if _, err := FeedThroughsCeil(fc.h, fc.p); err == nil {
				t.Fatalf("memo accepted (%d,%g)", fc.h, fc.p)
			} else if err.Error() != want.Error() {
				t.Fatalf("error rewritten by the memo: %q, want %q", err, want)
			}
		}
	}
	if got := mSpanMisses.Value() - s0; got != 4 {
		t.Fatalf("4 failing row-span lookups counted %d misses; errors must not be cached", got)
	}
	if got := mFeedMisses.Value() - f0; got != 8 {
		t.Fatalf("8 failing feed-through lookups counted %d misses; errors must not be cached", got)
	}
}

// TestSpanEvictionStaysBitIdentical drives one span shard and one feed
// shard past capacity (keys n ≡ 2 mod 16 at fixed D, and H ≡ 1 mod 16
// at fixed p, each land in one shard) and checks both the eviction
// accounting and the property eviction must preserve: a recomputed
// entry equals the evicted one exactly.
func TestSpanEvictionStaysBitIdentical(t *testing.T) {
	Purge()
	const d = 2
	const extra = 8
	firstE, err := ExpectedRowSpan(2, d)
	if err != nil {
		t.Fatal(err)
	}
	ev0 := mSpanEvicted.Value()
	for k := 0; k < spanShardCap+extra; k++ {
		if _, err := ExpectedRowSpan(2+16*k, d); err != nil {
			t.Fatal(err)
		}
	}
	// The first loop iteration re-hits the warm (2, d) entry, so at
	// least `extra` evictions must have happened and the oldest key
	// (n=2) must be among the victims.
	if ev := mSpanEvicted.Value() - ev0; ev < extra {
		t.Fatalf("only %d evictions after overfilling a %d-entry shard by %d", ev, spanShardCap, extra)
	}
	m0 := mSpanMisses.Value()
	again, err := ExpectedRowSpan(2, d)
	if err != nil {
		t.Fatal(err)
	}
	if m := mSpanMisses.Value() - m0; m != 1 {
		t.Fatalf("evicted entry did not recompute (miss delta %d)", m)
	}
	if math.Float64bits(again) != math.Float64bits(firstE) {
		t.Fatalf("recomputed span %g differs from pre-eviction %g", again, firstE)
	}

	const p = 2.0 / 9
	firstM, err := FeedThroughsCeil(1, p)
	if err != nil {
		t.Fatal(err)
	}
	fe0 := mFeedEvicted.Value()
	for k := 1; k <= feedShardCap+extra; k++ {
		if _, err := FeedThroughsCeil(1+16*k, p); err != nil {
			t.Fatal(err)
		}
	}
	if ev := mFeedEvicted.Value() - fe0; ev != extra+1 {
		t.Fatalf("%d feed evictions after overfilling a %d-entry shard by %d", ev, feedShardCap, extra+1)
	}
	fm0 := mFeedMisses.Value()
	againM, err := FeedThroughsCeil(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if m := mFeedMisses.Value() - fm0; m != 1 {
		t.Fatalf("evicted feed entry did not recompute (miss delta %d)", m)
	}
	if againM != firstM {
		t.Fatalf("recomputed feed-throughs %d differ from pre-eviction %d", againM, firstM)
	}
}

func TestPurge(t *testing.T) {
	Purge()
	if _, err := ExpectedRowSpan(9, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := FeedThroughsCeil(9, 0.25); err != nil {
		t.Fatal(err)
	}
	Purge()
	s0, f0 := mSpanMisses.Value(), mFeedMisses.Value()
	if _, err := ExpectedRowSpan(9, 3); err != nil {
		t.Fatal(err)
	}
	if mSpanMisses.Value() != s0+1 {
		t.Fatal("span entry survived Purge")
	}
	if _, err := FeedThroughsCeil(9, 0.25); err != nil {
		t.Fatal(err)
	}
	if mFeedMisses.Value() != f0+1 {
		t.Fatal("feed entry survived Purge")
	}
}
