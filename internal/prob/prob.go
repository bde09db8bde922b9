// Package prob implements the probabilistic machinery of §4.1 of the
// paper: the distribution of the number of rows a net's D components
// span when placed uniformly over n standard-cell rows (Eqs. 2–3),
// the probability that a net contributes a feed-through to a given
// row (Eqs. 4–9), and the distribution and expectation of the number
// of feed-throughs in the central row across all H nets (Eqs. 10–11).
//
// Every closed form has a Monte Carlo counterpart in montecarlo.go;
// the tests require them to agree, reproducing the paper's "numerical
// simulation results".
package prob

import (
	"fmt"
	"math"
)

// Binomial returns C(n, k) as a float64, using log-gamma for large
// arguments so callers can work at any circuit scale.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k == 0 || k == n {
		return 1
	}
	if k > n-k {
		k = n - k
	}
	if n <= 60 {
		// Exact in float64 for small n.
		res := 1.0
		for i := 1; i <= k; i++ {
			res = res * float64(n-k+i) / float64(i)
		}
		return math.Round(res)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(lg - lk - lnk)
}

// RowSpanDist returns Eq. 2: dist[i-1] is the probability that the D
// components of a net land in exactly i of the n rows, for
// i = 1..min(n, D), under the paper's uniform-placement model with
// exponent k = min(n, D).
//
// Eq. 2's printed form is the alternating inclusion–exclusion sum
// P(i) = C(n,i)·[(i/n)ᵏ − Σ_{j<i} C(i,j)·q_j], whose terms grow like
// C(n,i) while the result stays in [0,1] — catastrophic cancellation
// for n beyond a few dozen rows (probabilities in the hundreds were
// observed at n = 200).  The same distribution is therefore evaluated
// by the forward occupancy chain — drop the k components one at a
// time; each lands in an already-occupied row with probability i/n —
//
//	P_{t+1}(i) = P_t(i)·i/n + P_t(i−1)·(n−i+1)/n,
//
// whose terms are all positive, so it is unconditionally stable at
// any scale and agrees with Eq. 2 exactly in exact arithmetic.
func RowSpanDist(n, D int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("prob: RowSpanDist needs n ≥ 1, got %d", n)
	}
	if D < 1 {
		return nil, fmt.Errorf("prob: RowSpanDist needs D ≥ 1, got %d", D)
	}
	k := n
	if D < n {
		k = D
	}
	// cur[i] = P(exactly i rows occupied after t components placed).
	cur := make([]float64, k+1)
	next := make([]float64, k+1)
	cur[0] = 1
	fn := float64(n)
	for t := 0; t < k; t++ {
		for i := range next {
			next[i] = 0
		}
		for i, p := range cur {
			if p == 0 {
				continue
			}
			next[i] += p * float64(i) / fn
			if i < k {
				next[i+1] += p * float64(n-i) / fn
			}
		}
		cur, next = next, cur
	}
	return cur[1:], nil
}

// ExpectedRowSpan returns Eq. 3's expectation E(i) = Σ i·P_rows(i),
// before rounding.
func ExpectedRowSpan(n, D int) (float64, error) {
	dist, err := RowSpanDist(n, D)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for i, p := range dist {
		e += float64(i+1) * p
	}
	return e, nil
}

// TracksForNet returns the paper's per-net track count: E(i) rounded
// up to the next higher integer ("E(i) should be rounded up").
func TracksForNet(n, D int) (int, error) {
	e, err := ExpectedRowSpan(n, D)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(e - 1e-9)), nil
}

// FeedThroughProb returns the probability that a net of D components,
// placed uniformly over n rows, requires a feed-through in row i
// (1-based): at least one component strictly above row i and at least
// one strictly below.  This is the closed form of the paper's Eq. 5
// double sum (see FeedThroughProbPaper):
//
//	P = 1 − (i/n)ᴰ − ((n−i+1)/n)ᴰ + (1/n)ᴰ
//
// ("no component below" ∪ "no component above", inclusion–exclusion).
func FeedThroughProb(n, D, i int) (float64, error) {
	if err := checkRow(n, i); err != nil {
		return 0, err
	}
	if D < 2 {
		return 0, nil
	}
	fn := float64(n)
	pNoBelow := math.Pow(float64(i)/fn, float64(D))
	pNoAbove := math.Pow(float64(n-i+1)/fn, float64(D))
	pOnlyRowI := math.Pow(1/fn, float64(D))
	p := 1 - pNoBelow - pNoAbove + pOnlyRowI
	if p < 0 {
		p = 0
	}
	return p, nil
}

// FeedThroughProbPaper evaluates Eqs. 4–5 exactly as printed: the sum
// over l (components placed in row i) of C(D,l)(1/n)ˡ times the sum
// over j (components above) of C(D−l,j)((i−1)/n)ʲ((n−i)/n)^(D−l−j),
// with j running 1..D−l−1 and l running 0..D−2.  It must equal
// FeedThroughProb; the tests enforce that.
func FeedThroughProbPaper(n, D, i int) (float64, error) {
	if err := checkRow(n, i); err != nil {
		return 0, err
	}
	if D < 2 {
		return 0, nil
	}
	fn := float64(n)
	pAbove := float64(i-1) / fn
	pBelow := float64(n-i) / fn
	pIn := 1 / fn
	total := 0.0
	for l := 0; l <= D-2; l++ {
		z := 0.0
		for j := 1; j <= D-l-1; j++ {
			z += Binomial(D-l, j) *
				math.Pow(pAbove, float64(j)) *
				math.Pow(pBelow, float64(D-l-j))
		}
		total += Binomial(D, l) * math.Pow(pIn, float64(l)) * z
	}
	return total, nil
}

// CentralRow returns the paper's most-feed-through-probable row index
// i = (n+1)/2 (1-based; for even n this is the upper-middle row, per
// the integer division in the paper's formula).
func CentralRow(n int) int { return (n + 1) / 2 }

// CentralFeedThroughProb returns Eq. 9: the two-component-net model
// probability of a feed-through in the central row,
//
//	P = 2·((n−1)/(2n))² = (n−1)²/(2n²),
//
// which tends to the paper's P_max = 0.5 as n → ∞.
func CentralFeedThroughProb(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("prob: CentralFeedThroughProb needs n ≥ 1, got %d", n)
	}
	fn := float64(n)
	return (fn - 1) * (fn - 1) / (2 * fn * fn), nil
}

// FeedThroughCountDist returns Eq. 10: dist[M] is the probability of
// exactly M of the H nets contributing a feed-through to the central
// row, each independently with probability p (binomial law,
// M = 0..H).
func FeedThroughCountDist(H int, p float64) ([]float64, error) {
	if H < 0 {
		return nil, fmt.Errorf("prob: FeedThroughCountDist needs H ≥ 0, got %d", H)
	}
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("prob: feed-through probability %g outside [0,1]", p)
	}
	dist := make([]float64, H+1)
	switch {
	case p == 0:
		dist[0] = 1
	case p == 1:
		dist[H] = 1
	default:
		// Iterate in log space to stay finite for large H.  dist first
		// holds the table ln k! = lgamma(k+1), k = 0..H; each pass then
		// reads the two entries it overwrites, m and H−m.
		for k := range dist {
			dist[k], _ = math.Lgamma(float64(k + 1))
		}
		lgH := dist[H]
		lp, lq := math.Log(p), math.Log(1-p)
		for m := 0; m <= H-m; m++ {
			lgm, lgr := dist[m], dist[H-m]
			dist[m] = math.Exp(lgH - lgm - lgr + float64(m)*lp + float64(H-m)*lq)
			dist[H-m] = math.Exp(lgH - lgr - lgm + float64(H-m)*lp + float64(m)*lq)
		}
	}
	return dist, nil
}

// ExpectedFeedThroughs returns Eq. 11's E(M) = Σ M·P(M) before
// rounding.  It equals H·p analytically; computing the sum keeps the
// implementation aligned with the paper's derivation (the identity is
// property-tested).
func ExpectedFeedThroughs(H int, p float64) (float64, error) {
	dist, err := FeedThroughCountDist(H, p)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for m, pm := range dist {
		e += float64(m) * pm
	}
	return e, nil
}

// FeedThroughsCeil returns E(M) rounded up to an integer, the value
// Eq. 12 consumes.
func FeedThroughsCeil(H int, p float64) (int, error) {
	e, err := ExpectedFeedThroughs(H, p)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(e - 1e-9)), nil
}

func checkRow(n, i int) error {
	if n < 1 {
		return fmt.Errorf("prob: need n ≥ 1, got %d", n)
	}
	if i < 1 || i > n {
		return fmt.Errorf("prob: row %d outside 1..%d", i, n)
	}
	return nil
}
