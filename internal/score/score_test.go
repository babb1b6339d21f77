package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func TestPopularityPaperExample(t *testing.T) {
	// Figure 2: levels of sizes 1 (root), 3, 4, 2 give
	// 3×1/2 + 4×1/3 + 2×1/4 = 10/3.
	got := Popularity([]int{1, 3, 4, 2}, 0.1)
	if math.Abs(got-10.0/3.0) > 1e-12 {
		t.Errorf("Popularity = %v, want 10/3", got)
	}
}

func TestPopularitySingletonIsEpsilon(t *testing.T) {
	for _, eps := range []float64{0, 0.1, 1} {
		if got := Popularity([]int{1}, eps); got != eps {
			t.Errorf("singleton popularity = %v, want ε=%v", got, eps)
		}
		if got := Popularity(nil, eps); got != eps {
			t.Errorf("empty levels popularity = %v, want ε=%v", got, eps)
		}
	}
}

func TestPopularityMonotoneInLevelSizes(t *testing.T) {
	f := func(a, b, c uint8) bool {
		base := []int{1, int(a), int(b), int(c)}
		bigger := []int{1, int(a) + 1, int(b), int(c)}
		return Popularity(bigger, 0.1) >= Popularity(base, 0.1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTweetDistance(t *testing.T) {
	q := geo.Point{Lat: 43.6839128037, Lon: -79.37356590}
	m := geo.Haversine{}
	// At the query point the score is 1.
	if got := TweetDistance(q, q, 10, m); got != 1 {
		t.Errorf("distance score at query point = %v, want 1", got)
	}
	// Outside the radius the score is 0.
	far := geo.Point{Lat: 44.7, Lon: -79.37}
	if got := TweetDistance(far, q, 10, m); got != 0 {
		t.Errorf("distance score outside radius = %v, want 0", got)
	}
	// Halfway out scores about 0.5.
	halfway := geo.Point{Lat: q.Lat + 5.0/geo.EarthRadiusKm*180/math.Pi, Lon: q.Lon}
	if got := TweetDistance(halfway, q, 10, m); math.Abs(got-0.5) > 0.01 {
		t.Errorf("halfway distance score = %v, want ~0.5", got)
	}
	// Degenerate radius.
	if got := TweetDistance(q, q, 0, m); got != 0 {
		t.Errorf("zero radius score = %v, want 0", got)
	}
}

func TestTweetDistanceRangeProperty(t *testing.T) {
	f := func(latSeed, lonSeed uint32, rSeed uint8) bool {
		q := geo.Point{Lat: 43, Lon: -79}
		p := geo.Point{
			Lat: float64(latSeed)/float64(math.MaxUint32)*160 - 80,
			Lon: float64(lonSeed)/float64(math.MaxUint32)*360 - 180,
		}
		r := float64(rSeed)/4 + 0.5
		d := TweetDistance(p, q, r, geo.Haversine{})
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceScoreIsTweetDistance pins that the radius filter's δ(p,q) —
// DistanceScore of the distance it already computed — and TweetDistance from
// the two points are both bit-for-bit Definition 5 written out, for both
// metrics, inside and outside the radius: ==, not a tolerance.
func TestDistanceScoreIsTweetDistance(t *testing.T) {
	definition5 := func(p, q geo.Point, r float64, m geo.Metric) float64 {
		if r <= 0 {
			return 0
		}
		d := m.DistanceKm(q, p)
		if d > r {
			return 0
		}
		return (r - d) / r
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range []geo.Metric{geo.Haversine{}, geo.Equirectangular{}} {
		for i := 0; i < 20000; i++ {
			q := geo.Point{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
			// Mostly near the query, so a good share falls inside the radius.
			p := geo.Point{Lat: q.Lat + rng.NormFloat64()*0.3, Lon: q.Lon + rng.NormFloat64()*0.3}
			if !p.Valid() {
				continue
			}
			r := rng.Float64() * 60
			if i%100 == 0 {
				r = 0
			}
			want := definition5(p, q, r, m)
			if got, td := DistanceScore(m.DistanceKm(q, p), r), TweetDistance(p, q, r, m); got != want || td != want {
				t.Fatalf("%T p=%v q=%v r=%v: DistanceScore %v, TweetDistance %v, Definition 5 %v", m, p, q, r, got, td, want)
			}
		}
	}
}

func TestKeywordRelevance(t *testing.T) {
	// Definition 6 example: "spicy restaurant" query, tweet with one
	// "spicy" and two "restaurant" gives 3 occurrences.
	got := KeywordRelevance(3, 2.0, 40)
	if math.Abs(got-3.0/40*2.0) > 1e-12 {
		t.Errorf("KeywordRelevance = %v", got)
	}
	if KeywordRelevance(0, 5, 40) != 0 {
		t.Error("zero matches must score 0")
	}
	if KeywordRelevance(-1, 5, 40) != 0 {
		t.Error("negative matches must score 0")
	}
	// ρ is allowed to exceed 1 (Section III-B).
	if KeywordRelevance(10, 50, 40) <= 1 {
		t.Error("relevance should be able to exceed 1")
	}
}

func TestCombine(t *testing.T) {
	if got := Combine(0.5, 0.8, 0.4); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Combine = %v, want 0.6", got)
	}
	// α=1 keeps only keyword relevance; α=0 only distance.
	if Combine(1, 0.7, 0.2) != 0.7 || Combine(0, 0.7, 0.2) != 0.2 {
		t.Error("alpha extremes wrong")
	}
}

func TestUserDistance(t *testing.T) {
	if got := UserDistance(1.5, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("UserDistance = %v, want 0.5", got)
	}
	if UserDistance(1, 0) != 0 {
		t.Error("zero posts must score 0")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: -0.1, Epsilon: 0.1, N: 40, ThreadDepth: 6, Metric: geo.Haversine{}},
		{Alpha: 1.1, Epsilon: 0.1, N: 40, ThreadDepth: 6, Metric: geo.Haversine{}},
		{Alpha: 0.5, Epsilon: -1, N: 40, ThreadDepth: 6, Metric: geo.Haversine{}},
		{Alpha: 0.5, Epsilon: 0.1, N: 0, ThreadDepth: 6, Metric: geo.Haversine{}},
		{Alpha: 0.5, Epsilon: 0.1, N: 40, ThreadDepth: 0, Metric: geo.Haversine{}},
		{Alpha: 0.5, Epsilon: 0.1, N: 40, ThreadDepth: 6, Metric: nil},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params case %d accepted", i)
		}
	}
}

func TestRecencyBoost(t *testing.T) {
	if got := RecencyBoost(0, 0.5); got != 1 {
		t.Errorf("fresh tweet boost = %v, want 1", got)
	}
	if got := RecencyBoost(0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("one half-life boost = %v, want 0.5", got)
	}
	if got := RecencyBoost(1, 0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("two half-lives boost = %v, want 0.25", got)
	}
	if got := RecencyBoost(0.3, 0); got != 1 {
		t.Errorf("disabled boost = %v, want 1", got)
	}
	if got := RecencyBoost(-1, 0.5); got != 1 {
		t.Errorf("negative age clamps to 1, got %v", got)
	}
}
