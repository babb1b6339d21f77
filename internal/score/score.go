// Package score implements the scoring model of Section III: tweet thread
// popularity (Definition 4), the tweet distance score (Definition 5), the
// tweet keyword relevance score (Definition 6), the two user keyword
// relevance scores (Definitions 7 and 8), the user distance score
// (Definition 9), and the combined user score (Definition 10).
package score

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// Params carries the model parameters with the paper's experimental values
// as defaults.
type Params struct {
	// Alpha balances keyword relevance against distance in Definition 10;
	// the experiments use 0.5 "so that the two factors are considered as
	// having the same impact".
	Alpha float64
	// Epsilon is the smoothing popularity of a single-tweet thread
	// (Definition 4); the experiments use 0.1.
	Epsilon float64
	// N normalizes keyword occurrences in Definition 6; "empirically set
	// around 40 such that keyword relevance score is comparable to the
	// distance score".
	N float64
	// ThreadDepth is the depth limit d of Algorithm 1.
	ThreadDepth int
	// Metric measures distances; the default is great-circle km.
	Metric geo.Metric
}

// DefaultParams returns the parameter values of Section VI.
func DefaultParams() Params {
	return Params{Alpha: 0.5, Epsilon: 0.1, N: 40, ThreadDepth: 6, Metric: geo.Haversine{}}
}

// Validate rejects parameter combinations outside the model's domain.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("score: alpha %v outside [0,1]", p.Alpha)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("score: epsilon %v negative", p.Epsilon)
	}
	if p.N <= 0 {
		return fmt.Errorf("score: normalizer N %v must be positive", p.N)
	}
	if p.ThreadDepth < 1 {
		return fmt.Errorf("score: thread depth %d must be >= 1", p.ThreadDepth)
	}
	if p.Metric == nil {
		return fmt.Errorf("score: metric is nil")
	}
	return nil
}

// Popularity computes φ(p) from a thread's level sizes (Definition 4).
// levelSizes[0] is the root level (always 1), levelSizes[i] the number of
// tweets at level i+1. A thread of height 1 scores epsilon; otherwise
// φ = Σ_{i=2..n} |T_i| / i.
func Popularity(levelSizes []int, epsilon float64) float64 {
	if len(levelSizes) <= 1 {
		return epsilon
	}
	var pop float64
	for i := 1; i < len(levelSizes); i++ {
		pop += float64(levelSizes[i]) / float64(i+1)
	}
	return pop
}

// TweetDistance computes δ(p,q) (Definition 5): (r − dist)/r within the
// radius, 0 outside. Its range is [0,1].
func TweetDistance(postLoc, queryLoc geo.Point, radiusKm float64, m geo.Metric) float64 {
	return DistanceScore(m.DistanceKm(queryLoc, postLoc), radiusKm)
}

// DistanceScore is Definition 5 for a caller that already holds
// distKm = ‖q.l, p.l‖ (the radius filter does): the one body of δ(p,q).
func DistanceScore(distKm, radiusKm float64) float64 {
	if radiusKm <= 0 || distKm > radiusKm {
		return 0
	}
	return (radiusKm - distKm) / radiusKm
}

// KeywordRelevance computes ρ(p,q) (Definition 6): the bag-model count of
// query keyword occurrences in the tweet, normalized by N, times the
// tweet's popularity. matches is |q.W ∩ p.W| under bag semantics (the sum
// of term frequencies of the matched query terms).
func KeywordRelevance(matches int, popularity, n float64) float64 {
	if matches <= 0 {
		return 0
	}
	return float64(matches) / n * popularity
}

// Combine computes the user score of Definition 10:
// α·ρ(u,q) + (1−α)·δ(u,q).
func Combine(alpha, rho, delta float64) float64 {
	return alpha*rho + (1-alpha)*delta
}

// UserDistance computes δ(u,q) (Definition 9): the sum of the user's tweet
// distance scores divided by the user's total number of posts |P_u|.
// Tweets outside the radius contribute 0, so callers may pass only the sum
// over in-radius posts.
func UserDistance(sumTweetDistances float64, totalPosts int) float64 {
	if totalPosts <= 0 {
		return 0
	}
	return sumTweetDistances / float64(totalPosts)
}

// RecencyBoost implements the temporal extension sketched in the paper's
// future-work section: a multiplicative boost in (0,1] that decays
// exponentially with the age of a tweet relative to the newest tweet in the
// corpus. ageFraction is age / corpus time span (0 = newest, 1 = oldest);
// halfLifeFraction is the fraction of the span at which the boost halves.
func RecencyBoost(ageFraction, halfLifeFraction float64) float64 {
	if halfLifeFraction <= 0 {
		return 1
	}
	if ageFraction < 0 {
		ageFraction = 0
	}
	return math.Exp2(-ageFraction / halfLifeFraction)
}
