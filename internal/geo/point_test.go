package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"same point", Point{43.7, -79.4}, Point{43.7, -79.4}, 0, 1e-9},
		{"Toronto to Montreal", Point{43.6532, -79.3832}, Point{45.5017, -73.5673}, 504, 5},
		{"Copenhagen to Aalborg", Point{55.6761, 12.5683}, Point{57.0488, 9.9217}, 223, 5},
		{"equator one degree lon", Point{0, 0}, Point{0, 1}, 111.19, 0.2},
		{"antipodal", Point{0, 0}, Point{0, 180}, math.Pi * EarthRadiusKm, 1},
	}
	for _, c := range cases {
		if got := HaversineKm(c.a, c.b); math.Abs(got-c.wantKm) > c.tolKm {
			t.Errorf("%s: HaversineKm = %.3f, want %.3f (±%.3f)", c.name, got, c.wantKm, c.tolKm)
		}
	}
}

func TestHaversineMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPoint := func() Point {
		return Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
	}
	for i := 0; i < 300; i++ {
		a, b, c := randPoint(), randPoint(), randPoint()
		dab, dba := HaversineKm(a, b), HaversineKm(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("symmetry violated: %v vs %v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		if HaversineKm(a, a) != 0 {
			t.Fatalf("identity violated for %v", a)
		}
		// Triangle inequality (allow float slack).
		if HaversineKm(a, c) > dab+HaversineKm(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestEquirectangularApproximatesHaversineLocally(t *testing.T) {
	// For nearby points (< 50 km) at moderate latitudes the two metrics
	// should agree within 1%.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a := Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}
		b := Point{Lat: a.Lat + rng.Float64()*0.3 - 0.15, Lon: a.Lon + rng.Float64()*0.3 - 0.15}
		if b.Lon > 180 || b.Lon < -180 {
			continue
		}
		h, e := HaversineKm(a, b), EquirectangularKm(a, b)
		if h > 1 && math.Abs(h-e)/h > 0.01 {
			t.Fatalf("metrics diverge at %v-%v: haversine %.4f vs equirect %.4f", a, b, h, e)
		}
	}
}

// TestBoundingRectContainsCircle: every point of the circle's boundary,
// drawn by the destination formula anywhere on the sphere, lies in one of
// the rectangles — across the antimeridian and around the poles too.
func TestBoundingRectContainsCircle(t *testing.T) {
	f := func(latSeed, lonSeed, angleSeed uint32, radiusSeed uint16) bool {
		center := Point{
			Lat: float64(latSeed)/float64(math.MaxUint32)*180 - 90,
			Lon: float64(lonSeed)/float64(math.MaxUint32)*360 - 180,
		}
		radius := float64(radiusSeed)/math.MaxUint16*3000 + 0.1 // 0.1 .. 3000.1 km
		angle := float64(angleSeed) / float64(math.MaxUint32) * 2 * math.Pi
		p := destination(center, radius, angle)
		for _, box := range BoundingRect(center, radius) {
			if box.Contains(p) {
				return true
			}
		}
		t.Logf("center %v r=%.1f: boundary point %v outside %v", center, radius, p, BoundingRect(center, radius))
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinDistanceKm(t *testing.T) {
	cell := MustDecodeCell("6gxp")
	inside := cell.Center()
	if d := MinDistanceKm(inside, cell); d != 0 {
		t.Errorf("inside point distance = %v, want 0", d)
	}
	outside := Point{Lat: cell.MaxLat + 1, Lon: cell.Center().Lon}
	d := MinDistanceKm(outside, cell)
	want := HaversineKm(outside, Point{Lat: cell.MaxLat, Lon: outside.Lon})
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("MinDistanceKm = %v, want %v", d, want)
	}

	// Beside a tall rectangle the nearest point of its meridian edge sits
	// poleward of p's latitude, where clamping p into the rectangle would not
	// look: a dense walk of the edge never beats MinDistanceKm.
	tall := Rect{MinLat: 55, MaxLat: 70, MinLon: 20, MaxLon: 25}
	for _, p := range []Point{{Lat: 60, Lon: 0}, {Lat: 61.5, Lon: -3}, {Lat: -10, Lon: 150}, {Lat: 80, Lon: 120}} {
		got := MinDistanceKm(p, tall)
		walk := math.Inf(1)
		for i := 0; i <= 100000; i++ {
			lat := tall.MinLat + (tall.MaxLat-tall.MinLat)*float64(i)/100000
			for _, lon := range []float64{tall.MinLon, tall.MaxLon} {
				walk = math.Min(walk, HaversineKm(p, Point{Lat: lat, Lon: lon}))
			}
			lon := tall.MinLon + (tall.MaxLon-tall.MinLon)*float64(i)/100000
			for _, lat := range []float64{tall.MinLat, tall.MaxLat} {
				walk = math.Min(walk, HaversineKm(p, Point{Lat: lat, Lon: lon}))
			}
		}
		if got > walk+1e-9 || got < walk-1e-3 {
			t.Errorf("MinDistanceKm(%v) = %.6f km, the boundary walk finds %.6f", p, got, walk)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{5, 15, 5, 15}, true},
		{Rect{10, 20, 10, 20}, true}, // touching corner counts
		{Rect{11, 20, 0, 10}, false},
		{Rect{0, 10, 11, 20}, false},
		{Rect{2, 3, 2, 3}, true}, // fully contained
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d (reversed): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}, {43.7, -79.4}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}
