package prob

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10},
		{10, 3, 120}, {52, 5, 2598960}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialLargeMatchesPascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) must hold to high relative
	// accuracy across the Lgamma switchover (n > 60).
	for _, n := range []int{61, 80, 120, 200} {
		for _, k := range []int{1, 2, n / 3, n / 2} {
			got := Binomial(n, k)
			want := Binomial(n-1, k-1) + Binomial(n-1, k)
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Errorf("Pascal identity fails at C(%d,%d): rel err %g", n, k, rel)
			}
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		nn := int(n%100) + 1
		kk := int(k) % (nn + 1)
		a, b := Binomial(nn, kk), Binomial(nn, nn-kk)
		if a == 0 && b == 0 {
			return true
		}
		return math.Abs(a-b)/math.Max(a, b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowSpanDistSumsToOne(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 20} {
		for _, D := range []int{1, 2, 3, 5, 10, 40, 200} {
			dist, err := RowSpanDist(n, D)
			if err != nil {
				t.Fatalf("n=%d D=%d: %v", n, D, err)
			}
			sum := 0.0
			for _, p := range dist {
				if p < -1e-12 {
					t.Fatalf("n=%d D=%d: negative probability %g", n, D, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("n=%d D=%d: distribution sums to %g", n, D, sum)
			}
		}
	}
}

func TestRowSpanDistKnownValues(t *testing.T) {
	// n=2, D=2: P(1 row) = 2/4, P(2 rows) = 2/4.
	dist, err := RowSpanDist(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[0]-0.5) > 1e-12 || math.Abs(dist[1]-0.5) > 1e-12 {
		t.Fatalf("n=2 D=2 dist = %v", dist)
	}
	// n=3, D=2: P(1) = 3/9, P(2) = 6/9.
	dist, err = RowSpanDist(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[0]-1.0/3) > 1e-12 || math.Abs(dist[1]-2.0/3) > 1e-12 {
		t.Fatalf("n=3 D=2 dist = %v", dist)
	}
	// D=1 spans exactly one row.
	dist, err = RowSpanDist(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || math.Abs(dist[0]-1) > 1e-12 {
		t.Fatalf("n=7 D=1 dist = %v", dist)
	}
	// n=1: everything is in the single row.
	dist, err = RowSpanDist(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || math.Abs(dist[0]-1) > 1e-12 {
		t.Fatalf("n=1 D=9 dist = %v", dist)
	}
}

func TestRowSpanDistErrors(t *testing.T) {
	if _, err := RowSpanDist(0, 3); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RowSpanDist(3, 0); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := ExpectedRowSpan(0, 1); err == nil {
		t.Error("ExpectedRowSpan n=0 accepted")
	}
	if _, err := TracksForNet(-1, 2); err == nil {
		t.Error("TracksForNet n=-1 accepted")
	}
}

func TestExpectedRowSpanBounds(t *testing.T) {
	f := func(nn, dd uint8) bool {
		n := int(nn%20) + 1
		D := int(dd%20) + 1
		e, err := ExpectedRowSpan(n, D)
		if err != nil {
			return false
		}
		lim := float64(min(n, D))
		return e >= 1-1e-9 && e <= lim+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedRowSpanExactOccupancy(t *testing.T) {
	// For D ≤ n the expected number of occupied rows has the exact
	// occupancy formula n(1 − (1−1/n)^D); the paper's Eq. 2/3 must
	// agree when its truncation k = min(n,D) is inactive.
	for _, c := range []struct{ n, D int }{{5, 2}, {5, 5}, {10, 3}, {8, 8}, {30, 7}} {
		e, err := ExpectedRowSpan(c.n, c.D)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(c.n) * (1 - math.Pow(1-1/float64(c.n), float64(c.D)))
		if math.Abs(e-want) > 1e-9 {
			t.Errorf("n=%d D=%d: E = %g, occupancy formula %g", c.n, c.D, e, want)
		}
	}
}

func TestTracksForNetRoundsUp(t *testing.T) {
	// n=3, D=2: E = 1*(1/3) + 2*(2/3) = 5/3 -> 2 tracks.
	tr, err := TracksForNet(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 2 {
		t.Fatalf("tracks = %d, want 2", tr)
	}
	// D=1: E = 1 -> exactly 1 (integral expectations must not round
	// up an extra step).
	tr, err = TracksForNet(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 1 {
		t.Fatalf("tracks(D=1) = %d, want 1", tr)
	}
}

func TestFeedThroughProbMatchesPaperSum(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for D := 2; D <= 9; D++ {
			for i := 1; i <= n; i++ {
				closed, err := FeedThroughProb(n, D, i)
				if err != nil {
					t.Fatal(err)
				}
				paper, err := FeedThroughProbPaper(n, D, i)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(closed-paper) > 1e-9 {
					t.Fatalf("n=%d D=%d i=%d: closed %g != paper %g", n, D, i, closed, paper)
				}
			}
		}
	}
}

func TestFeedThroughProbEdges(t *testing.T) {
	// With n=1 no feed-through is possible.
	p, err := FeedThroughProb(1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("n=1 p = %g", p)
	}
	// D<2 cannot split above/below.
	p, err = FeedThroughProb(5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("D=1 p = %g", p)
	}
	// Row out of range.
	if _, err := FeedThroughProb(5, 3, 0); err == nil {
		t.Error("row 0 accepted")
	}
	if _, err := FeedThroughProb(5, 3, 6); err == nil {
		t.Error("row n+1 accepted")
	}
	if _, err := FeedThroughProbPaper(5, 3, 0); err == nil {
		t.Error("paper form: row 0 accepted")
	}
}

func TestFeedThroughMonotonicInD(t *testing.T) {
	// More components can only make an above/below split likelier.
	for n := 3; n <= 9; n++ {
		i := CentralRow(n)
		prev := -1.0
		for D := 2; D <= 30; D++ {
			p, err := FeedThroughProb(n, D, i)
			if err != nil {
				t.Fatal(err)
			}
			if p < prev-1e-12 {
				t.Fatalf("n=%d: P decreased from %g to %g at D=%d", n, prev, p, D)
			}
			prev = p
		}
	}
}

func TestCentralRowTheorem(t *testing.T) {
	// The paper's claim: the central row maximizes the feed-through
	// probability for every D ("regardless of the value of D").
	for n := 2; n <= 15; n++ {
		for D := 2; D <= 10; D++ {
			best, err := ArgmaxFeedThroughRow(n, D)
			if err != nil {
				t.Fatal(err)
			}
			central := CentralRow(n)
			bestP, _ := FeedThroughProb(n, D, best)
			centralP, _ := FeedThroughProb(n, D, central)
			if math.Abs(bestP-centralP) > 1e-12 {
				t.Errorf("n=%d D=%d: argmax row %d (P=%g) beats central %d (P=%g)",
					n, D, best, bestP, central, centralP)
			}
		}
	}
}

func TestCentralRowIndex(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 9: 5, 10: 5}
	for n, want := range cases {
		if got := CentralRow(n); got != want {
			t.Errorf("CentralRow(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCentralFeedThroughProbEq9(t *testing.T) {
	// Eq. 9 closed form: (n−1)²/(2n²).
	p, err := CentralFeedThroughProb(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-4.0/18.0) > 1e-12 {
		t.Fatalf("n=3: p = %g, want 2/9", p)
	}
	// Must equal the general formula at D=2, i=central, for odd n
	// (the two-component model the paper derives it from).
	for _, n := range []int{3, 5, 7, 9, 21, 101} {
		eq9, _ := CentralFeedThroughProb(n)
		gen, _ := FeedThroughProb(n, 2, CentralRow(n))
		if math.Abs(eq9-gen) > 1e-12 {
			t.Errorf("n=%d: Eq.9 %g != general %g", n, eq9, gen)
		}
	}
	if _, err := CentralFeedThroughProb(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestEq9Limit(t *testing.T) {
	// P → 0.5 as n → ∞ (the paper's P_max-feed-th).
	p6, _ := CentralFeedThroughProb(1_000_000)
	if math.Abs(p6-0.5) > 1e-5 {
		t.Fatalf("limit: p(1e6) = %g", p6)
	}
	// And monotone increasing in n.
	prev := -1.0
	for n := 1; n < 200; n++ {
		p, _ := CentralFeedThroughProb(n)
		if p < prev {
			t.Fatalf("Eq.9 not monotone at n=%d", n)
		}
		prev = p
	}
}

func TestFeedThroughCountDist(t *testing.T) {
	dist, err := FeedThroughCountDist(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for m := range want {
		if math.Abs(dist[m]-want[m]) > 1e-12 {
			t.Fatalf("P(M=%d) = %g, want %g", m, dist[m], want[m])
		}
	}
	// Degenerate p values.
	d0, _ := FeedThroughCountDist(3, 0)
	if d0[0] != 1 || d0[1] != 0 {
		t.Fatalf("p=0 dist = %v", d0)
	}
	d1, _ := FeedThroughCountDist(3, 1)
	if d1[3] != 1 || d1[0] != 0 {
		t.Fatalf("p=1 dist = %v", d1)
	}
	// Errors.
	if _, err := FeedThroughCountDist(-1, 0.5); err == nil {
		t.Error("H=-1 accepted")
	}
	if _, err := FeedThroughCountDist(3, 1.5); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := FeedThroughCountDist(3, math.NaN()); err == nil {
		t.Error("p=NaN accepted")
	}
}

func TestExpectedFeedThroughsEqualsHp(t *testing.T) {
	// E(M) from the Eq. 11 sum must equal H·p (binomial mean).
	f := func(hh uint8, pp uint16) bool {
		H := int(hh % 200)
		p := float64(pp%1000) / 1000
		e, err := ExpectedFeedThroughs(H, p)
		if err != nil {
			return false
		}
		return math.Abs(e-float64(H)*p) < 1e-6*math.Max(1, float64(H))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeedThroughsCeil(t *testing.T) {
	// H=10, p=2/9 (n=3): E = 20/9 ≈ 2.22 -> 3.
	p, _ := CentralFeedThroughProb(3)
	m, err := FeedThroughsCeil(10, p)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Fatalf("E(M) ceil = %d, want 3", m)
	}
	// Integral expectation must not round an extra step.
	m, err = FeedThroughsCeil(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("E(M)=2 rounded to %d", m)
	}
	if _, err := FeedThroughsCeil(-2, 0.5); err == nil {
		t.Error("H=-2 accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
