package geo

import (
	"math"
	"math/rand"
	"testing"
)

// destination returns the point distKm from p along bearingRad on the sphere.
func destination(p Point, distKm, bearingRad float64) Point {
	lat1, lon1 := p.Lat*math.Pi/180, p.Lon*math.Pi/180
	ang := distKm / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(bearingRad))
	lon2 := lon1 + math.Atan2(math.Sin(bearingRad)*math.Sin(ang)*math.Cos(lat1), math.Cos(ang)-math.Sin(lat1)*math.Sin(lat2))
	lon := math.Mod(lon2*180/math.Pi+540, 360) - 180
	return Point{Lat: clamp(lat2*180/math.Pi, -90, 90), Lon: lon}
}

// nudge moves x by k ulps.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// checkCircle requires c to admit p exactly when the metric puts it within
// the radius, with the == distance.
func checkCircle(t *testing.T, c *Circle, m Metric, center, p Point, radiusKm float64) {
	t.Helper()
	want := m.DistanceKm(center, p)
	km, inside := c.Distance(p)
	if inside != (want <= radiusKm) {
		t.Fatalf("centre %v r=%v: %v at %v km: inside = %v", center, radiusKm, p, want, inside)
	}
	if inside && km != want {
		t.Fatalf("centre %v r=%v: %v: distance %v, metric says %v", center, radiusKm, p, km, want)
	}
}

// TestCircleAdmitsExactlyTheHaversineDisc is the radius kernel's property
// test: for random centres — polar latitudes and the antimeridian included —
// and radii from 0.1 to 500 km, the trig-free cut-offs and the exact test
// together admit exactly {p : HaversineKm(q,p) <= r} and hand back the
// bit-identical distance. Points are drawn across and around the disc, and
// then placed on its very edge: the radius is set within ±4 ulp of a point's
// own distance, and the point's coordinates are nudged by ±4 ulp around it.
func TestCircleAdmitsExactlyTheHaversineDisc(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	centers := []Point{{0, 0}, {89.9, 10}, {-85, -179.99}, {43.7, 179.9999}, {80.5, -180}}
	for i := 0; i < 60; i++ {
		centers = append(centers, Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
	}
	admitted, rejected := 0, 0
	for _, center := range centers {
		for _, base := range []float64{0.1, 1, 15, 50, 500} {
			radius := base * (0.5 + rng.Float64())
			c := NewCircle(center, radius, Haversine{})
			if c.slow != nil {
				t.Fatalf("r=%v km fell back to the slow path", radius)
			}
			for j := 0; j < 40; j++ {
				// Anywhere from the centre to 3 radii out, then hard by the edge.
				p := destination(center, radius*3*rng.Float64(), rng.Float64()*2*math.Pi)
				checkCircle(t, &c, Haversine{}, center, p, radius)
				edge := destination(center, radius, rng.Float64()*2*math.Pi)
				d := HaversineKm(center, edge)
				for k := -4; k <= 4; k++ {
					ck := NewCircle(center, nudge(d, k), Haversine{})
					checkCircle(t, &ck, Haversine{}, center, edge, nudge(d, k))
					cd := NewCircle(center, d, Haversine{})
					checkCircle(t, &cd, Haversine{}, center, Point{Lat: clamp(nudge(edge.Lat, k), -90, 90), Lon: edge.Lon}, d)
					checkCircle(t, &cd, Haversine{}, center, Point{Lat: edge.Lat, Lon: nudge(edge.Lon, k)}, d)
				}
				if _, inside := c.Distance(p); inside {
					admitted++
				} else {
					rejected++
				}
			}
		}
	}
	if admitted < 1000 || rejected < 1000 {
		t.Fatalf("%d admitted, %d rejected: the sample does not straddle the disc", admitted, rejected)
	}
}

// TestCircleFallsBack pins the two cases that skip the cut-offs: a metric
// other than Haversine, and a radius whose half-angle nears π/2. Both must
// still agree with the metric point for point.
func TestCircleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	center := Point{Lat: 43.7, Lon: -79.4}
	for _, tc := range []struct {
		m      Metric
		radius float64
	}{{Equirectangular{}, 15}, {Haversine{}, 15000}, {Haversine{}, 25000}} {
		c := NewCircle(center, tc.radius, tc.m)
		if c.slow == nil {
			t.Fatalf("%T r=%v km took the fast path", tc.m, tc.radius)
		}
		for j := 0; j < 500; j++ {
			p := Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
			if tc.radius < 100 {
				p = destination(center, tc.radius*2*rng.Float64(), rng.Float64()*2*math.Pi)
			}
			checkCircle(t, &c, tc.m, center, p, tc.radius)
		}
	}
}
