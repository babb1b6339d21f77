// Package geo provides the spatial primitives used by the TkLUS system:
// geographic points, distance metrics, geohash encoding derived from a
// quadtree subdivision of the lat/lon space, and circle-to-cell covers used
// to translate a radius query into a set of geohash cells (Section IV-B of
// the paper).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by the haversine metric.
const EarthRadiusKm = 6371.0088

// Point is a geographic location in degrees.
type Point struct {
	Lat float64 // latitude in [-90, 90]
	Lon float64 // longitude in [-180, 180]
}

// Valid reports whether the point lies in the legal lat/lon domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func (p Point) String() string {
	return fmt.Sprintf("(%.8f, %.8f)", p.Lat, p.Lon)
}

// Rect is an axis-aligned lat/lon rectangle. MinLat <= MaxLat and
// MinLon <= MaxLon always hold for rectangles produced by this package: a
// region across the antimeridian is two rectangles, one each side of ±180
// (see BoundingRect).
type Rect struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// Intersects reports whether two rectangles overlap (closed boundaries).
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

// clamp restricts v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClosestPointTo returns the point inside r closest to p.
func (r Rect) ClosestPointTo(p Point) Point {
	return Point{
		Lat: clamp(p.Lat, r.MinLat, r.MaxLat),
		Lon: clamp(p.Lon, r.MinLon, r.MaxLon),
	}
}

// Metric measures the distance between two points in kilometres. The paper
// uses Euclidean distance and notes (footnote 4) that the techniques adapt to
// other metrics; we default to great-circle distance because the evaluation
// radii are expressed in kilometres.
type Metric interface {
	DistanceKm(a, b Point) float64
}

// Haversine is the great-circle metric on the WGS84 mean sphere.
type Haversine struct{}

// DistanceKm returns the great-circle distance between a and b in km.
func (Haversine) DistanceKm(a, b Point) float64 { return HaversineKm(a, b) }

// Equirectangular is a fast planar approximation of geographic distance:
// longitude differences are scaled by cos(mean latitude). It is the closest
// well-behaved analogue of the paper's Euclidean metric for lat/lon data.
type Equirectangular struct{}

// DistanceKm returns the equirectangular-projected distance in km.
func (Equirectangular) DistanceKm(a, b Point) float64 { return EquirectangularKm(a, b) }

// HaversineKm computes the great-circle distance between a and b in km.
func HaversineKm(a, b Point) float64 {
	return haversineArcKm(haversine(a, b, math.Cos(a.Lat*math.Pi/180)))
}

// haversine returns hav(θ) = sin²(θ/2) of the central angle θ between a and
// b, given cos(a.Lat) so a query hoists it across its postings. HaversineKm
// and Circle.Distance both evaluate this one expression, which is what keeps
// their distances bit-identical.
func haversine(a, b Point, cosLatA float64) float64 {
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	return s1*s1 + cosLatA*math.Cos(lat2)*s2*s2
}

// haversineArcKm inverts haversine into kilometres of arc.
func haversineArcKm(h float64) float64 {
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(min(h, 1)))
}

// Circle is one query's radius test, built once and applied to every
// resolved posting. Under the haversine metric it turns the radius into two
// cut-offs that reject a point before the inverse trigonometry, the second
// before any trigonometry. asin∘sqrt is monotone, so hav > sin²(r/2R) puts
// the distance beyond r; and hav ≥ sin²(Δlat/2) — two parallels are nowhere
// closer than along a meridian — so R·|Δlat| > r does too. Each cut-off
// carries a 1e-9 relative guard band, a million ulps against the few the
// evaluation can lose, so it only rejects points whose HaversineKm exceeds
// the radius; points inside the band get the exact test. Other metrics, and
// half-angles r/2R past π/4 (sin² flattens, then turns, towards π/2), pay
// Metric.DistanceKm per point. Bracket classifies most points with no
// trigonometry at all.
type Circle struct {
	center   Point
	radiusKm float64
	slow     Metric  // non-nil: no cut-offs apply
	cosLat   float64 // cos of the centre's latitude
	maxHav   float64 // sin²(r/2R)·(1+1e-9)
	maxDLat  float64 // degrees of latitude spanning r·(1+1e-9)
	inHav    float64 // sin²(r/2R)·(1−1e-9): a haversine at most this is inside
	cosSq    float64 // cos² of the centre's latitude
	sinCos   float64 // sin·cos of the centre's latitude
}

// guard is the relative guard band of the cut-offs and the bracket: a
// million ulps against the few any one evaluation can lose.
const guard = 1e-9

// NewCircle prepares the radius test of a query at center under m.
func NewCircle(center Point, radiusKm float64, m Metric) Circle {
	half := radiusKm / (2 * EarthRadiusKm)
	if _, ok := m.(Haversine); !ok || half > math.Pi/4 {
		return Circle{center: center, radiusKm: radiusKm, slow: m}
	}
	s := math.Sin(half)
	sinLat, cosLat := math.Sincos(center.Lat * math.Pi / 180)
	return Circle{
		center: center, radiusKm: radiusKm,
		cosLat:  math.Cos(center.Lat * math.Pi / 180),
		maxHav:  s * s * (1 + guard),
		maxDLat: 2 * half * 180 / math.Pi * (1 + guard),
		inHav:   s * s * (1 - guard),
		cosSq:   cosLat * cosLat,
		sinCos:  sinLat * cosLat,
	}
}

// Distance reports whether p lies within the radius — exactly when
// m.DistanceKm(center, p) <= radiusKm — and if so that distance, bit for bit.
func (c *Circle) Distance(p Point) (km float64, inside bool) {
	if c.slow != nil {
		km = c.slow.DistanceKm(c.center, p)
		return km, km <= c.radiusKm
	}
	if math.Abs(p.Lat-c.center.Lat) > c.maxDLat {
		return 0, false
	}
	h := haversine(c.center, p, c.cosLat)
	if h > c.maxHav {
		return 0, false
	}
	km = haversineArcKm(h)
	return km, km <= c.radiusKm
}

// Verdict is what Bracket can tell about a point without trigonometry.
type Verdict uint8

const (
	// Undecided: only Distance can tell.
	Undecided Verdict = iota
	// Outside: Distance reports the point outside; the cut-offs reject it.
	Outside
	// Inside: Distance reports the point inside, HaversineKm ≤ r for certain.
	Inside
)

// minCosProduct is the smallest cos φ_centre · cos φ_p the bracket's upper
// side trusts. Below it (both points within a degree of a pole) the
// product's absolute rounding, ~1e-15, is no longer far inside the relative
// guard.
const minCosProduct = 1e-4

// Bracket bounds, with polynomials alone, the float haversine h that
// Distance evaluates for p: lo ≤ h ≤ hi. Each half-angle's sine lies in
// [x − x³/6, x − x³/6 + x⁵/120] for x ≥ 0, and cos φ_p = cos(φ_c + d) is
// cos φ_c·cos d − sin φ_c·sin d with cos d in [1 − d²/2, 1 − d²/2 + d⁴/24]
// and sin d bracketed like the half-angles. The result is widened by the
// relative guard (and 1e-300, for subnormals). The verdict is Outside for
// the points the latitude cut-off rejects and for lo > sin²(r/2R)·(1+1e-9),
// which the haversine cut-off rejects too; Inside when
// hi ≤ sin²(r/2R)·(1−1e-9); Undecided otherwise, and always for the slow
// metrics, for a longitude half-angle past π/4 (the antimeridian's
// neighbours included), and near the poles, where hi is +Inf. lo and hi
// bracket h whatever the verdict: a point the latitude cut-off rejects, or
// one the bracket does not evaluate, gets [0, +Inf].
func (c *Circle) Bracket(p Point) (lo, hi float64, v Verdict) {
	if c.slow != nil {
		return 0, math.Inf(1), Undecided
	}
	if math.Abs(p.Lat-c.center.Lat) > c.maxDLat {
		return 0, math.Inf(1), Outside
	}
	// Constant divisors are multiplications by their reciprocals here: each
	// rounds within an ulp of haversine's division, far inside the guard.
	const rad = math.Pi / 180
	dLat := (p.Lat - c.center.Lat) * rad
	dLon := (p.Lon - c.center.Lon) * rad
	if !(math.Abs(dLon) <= math.Pi/2) {
		return 0, math.Inf(1), Undecided
	}
	s1lo, s1hi := sinBracket(math.Abs(dLat) / 2)
	s2lo, s2hi := sinBracket(math.Abs(dLon) / 2)
	// cos φ_c·cos φ_p = cos²φ_c·cos d − sin φ_c cos φ_c·sin d, d = dLat.
	d2 := dLat * dLat
	mid := c.cosSq*(1-d2/2) - c.sinCos*(dLat-dLat*d2*(1.0/6))
	slack := (c.cosSq*(1.0/24) + math.Abs(c.sinCos*dLat)*(1.0/120)) * d2 * d2
	lo, hi = s1lo*s1lo, math.Inf(1)
	if cLo := mid - slack; cLo >= minCosProduct {
		lo += cLo * s2lo * s2lo
		hi = (s1hi*s1hi+(mid+slack)*s2hi*s2hi)*(1+guard) + 1e-300
	}
	lo = max(lo*(1-guard)-1e-300, 0)
	switch {
	case lo > c.maxHav:
		return lo, hi, Outside
	case hi <= c.inHav:
		return lo, hi, Inside
	}
	return lo, hi, Undecided
}

// sinBracket returns x − x³/6 and x − x³/6 + x⁵/120, which bracket sin x
// for x ≥ 0 (the alternating Taylor series' first two partial sums past x).
func sinBracket(x float64) (lo, hi float64) {
	x2 := x * x
	lo = x - x*x2*(1.0/6)
	return lo, lo + x*x2*x2*(1.0/120)
}

// MinArcKm returns a lower bound on the distance Distance reports for a
// point whose haversine is at least lo: asin x ≥ x + x³/6 on [0, 1], less
// the relative guard. It is monotone in lo, and needs no trigonometry.
func MinArcKm(lo float64) float64 {
	lo = min(lo, 1)
	return 2 * EarthRadiusKm * math.Sqrt(lo) * (1 + lo*(1.0/6)) * (1 - guard)
}

// EquirectangularKm computes the planar approximation of the distance
// between a and b in km.
func EquirectangularKm(a, b Point) float64 {
	meanLat := (a.Lat + b.Lat) / 2 * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180 * math.Cos(meanLat)
	return EarthRadiusKm * math.Hypot(dLat, dLon)
}

// BoundingRect returns rectangles that together contain every point within
// radiusKm of center under the haversine metric — one, or two when the
// circle crosses the antimeridian. Latitude widens by the radius' arc d; a
// circle that reaches a pole (|lat| + d ≥ 90°) takes every longitude, and
// otherwise longitude widens by the circle's true half-width asin(sin d /
// cos lat) — wider than d / cos lat, which misses the circle's flanks. An
// interval past ±180 wraps into a second rectangle on the other side. Each
// bound is padded by a hair (1e-9°) so that boundary cells are never missed.
func BoundingRect(center Point, radiusKm float64) []Rect {
	if radiusKm < 0 {
		radiusKm = 0
	}
	const eps = 1e-9
	d := radiusKm / EarthRadiusKm // arc, radians
	dDeg := d * 180 / math.Pi
	lat := Rect{
		MinLat: math.Max(center.Lat-dDeg-eps, -90),
		MaxLat: math.Min(center.Lat+dDeg+eps, 90),
	}
	if d >= math.Pi/2 || math.Abs(center.Lat)+dDeg+eps >= 90 {
		lat.MinLon, lat.MaxLon = -180, 180
		return []Rect{lat}
	}
	half := math.Asin(math.Sin(d)/math.Cos(center.Lat*math.Pi/180))*180/math.Pi + eps
	lo, hi := center.Lon-half, center.Lon+half
	switch {
	case lo < -180:
		west, east := lat, lat
		west.MinLon, west.MaxLon = lo+360, 180
		east.MinLon, east.MaxLon = -180, hi
		return []Rect{west, east}
	case hi > 180:
		west, east := lat, lat
		west.MinLon, west.MaxLon = lo, 180
		east.MinLon, east.MaxLon = -180, hi-360
		return []Rect{west, east}
	}
	lat.MinLon, lat.MaxLon = lo, hi
	return []Rect{lat}
}

// MinDistanceKm returns the minimum haversine distance from p to any point of
// rectangle r (0 when p is inside r), exact on the sphere for rectangles of
// any size. When p's longitude is inside r, no point of r is nearer than the
// nearer latitude edge along p's meridian. Otherwise the nearest point lies
// on the meridian edge nearer in longitude (larger cos Δλ: nearer at every
// latitude), where the distance to latitude φ falls as cos(φ − φ*) rises,
// φ* = atan2(sin φp, cos φp cos Δλ): at φ* clamped into the edge when
// cos Δλ ≥ 0, else (φ* beyond a pole) at one of the edge's ends.
func MinDistanceKm(p Point, r Rect) float64 {
	if r.Contains(p) {
		return 0
	}
	if p.Lon >= r.MinLon && p.Lon <= r.MaxLon {
		return HaversineKm(p, Point{Lat: clamp(p.Lat, r.MinLat, r.MaxLat), Lon: p.Lon})
	}
	lon, cosDLon := r.MinLon, math.Cos((r.MinLon-p.Lon)*math.Pi/180)
	if c := math.Cos((r.MaxLon - p.Lon) * math.Pi / 180); c > cosDLon {
		lon, cosDLon = r.MaxLon, c
	}
	if cosDLon < 0 {
		return math.Min(HaversineKm(p, Point{Lat: r.MinLat, Lon: lon}), HaversineKm(p, Point{Lat: r.MaxLat, Lon: lon}))
	}
	sinLat, cosLat := math.Sincos(p.Lat * math.Pi / 180)
	star := math.Atan2(sinLat, cosLat*cosDLon) * 180 / math.Pi
	return HaversineKm(p, Point{Lat: clamp(star, r.MinLat, r.MaxLat), Lon: lon})
}
