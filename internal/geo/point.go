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
// MinLon <= MaxLon always hold for rectangles produced by this package
// (no antimeridian wrapping: the corpus and queries in this reproduction
// never straddle it, matching the paper's data set).
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
// Metric.DistanceKm per point.
type Circle struct {
	center   Point
	radiusKm float64
	slow     Metric  // non-nil: no cut-offs apply
	cosLat   float64 // cos of the centre's latitude
	maxHav   float64 // sin²(r/2R)·(1+1e-9)
	maxDLat  float64 // degrees of latitude spanning r·(1+1e-9)
}

// NewCircle prepares the radius test of a query at center under m.
func NewCircle(center Point, radiusKm float64, m Metric) Circle {
	half := radiusKm / (2 * EarthRadiusKm)
	if _, ok := m.(Haversine); !ok || half > math.Pi/4 {
		return Circle{center: center, radiusKm: radiusKm, slow: m}
	}
	const guard = 1 + 1e-9
	s := math.Sin(half)
	return Circle{
		center: center, radiusKm: radiusKm,
		cosLat:  math.Cos(center.Lat * math.Pi / 180),
		maxHav:  s * s * guard,
		maxDLat: 2 * half * 180 / math.Pi * guard,
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

// EquirectangularKm computes the planar approximation of the distance
// between a and b in km.
func EquirectangularKm(a, b Point) float64 {
	meanLat := (a.Lat + b.Lat) / 2 * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180 * math.Cos(meanLat)
	return EarthRadiusKm * math.Hypot(dLat, dLon)
}

// BoundingRect returns a rectangle that contains every point within
// radiusKm of center under the haversine metric. It expands slightly
// (epsilon on the degree deltas) so that boundary cells are never missed.
func BoundingRect(center Point, radiusKm float64) Rect {
	if radiusKm < 0 {
		radiusKm = 0
	}
	dLat := radiusKm / EarthRadiusKm * 180 / math.Pi
	cos := math.Cos(center.Lat * math.Pi / 180)
	// Near the poles cos(lat) -> 0; cap the longitude span at the full range.
	var dLon float64
	if cos < 1e-9 {
		dLon = 180
	} else {
		dLon = dLat / cos
	}
	const eps = 1e-9
	return Rect{
		MinLat: math.Max(center.Lat-dLat-eps, -90),
		MaxLat: math.Min(center.Lat+dLat+eps, 90),
		MinLon: math.Max(center.Lon-dLon-eps, -180),
		MaxLon: math.Min(center.Lon+dLon+eps, 180),
	}
}

// MinDistanceKm returns the minimum haversine distance from p to any point of
// rectangle r (0 when p is inside r). It uses the closest point of the
// rectangle, which is exact for the small cells used in query covers.
func MinDistanceKm(p Point, r Rect) float64 {
	if r.Contains(p) {
		return 0
	}
	return HaversineKm(p, r.ClosestPointTo(p))
}
