package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// coverPrecision keeps a cover's grid walk small: coarse cells for the
// continental radii, the index's 4 characters for city-sized ones.
func coverPrecision(radiusKm float64, want int) int {
	switch {
	case radiusKm > 1000:
		return min(want, 2)
	case radiusKm > 150:
		return min(want, 3)
	}
	return want
}

// TestCircleCoverCompleteness: every point within the radius lies in some
// cover cell — the property query correctness rests on (Section IV-B1) —
// for centres anywhere on the sphere, poles and the antimeridian included,
// and radii from 1 to 3000 km. The points are drawn with the spherical
// destination formula at a random bearing and a distance up to the radius, never from
// the cover's own bounding rectangle: sampled from that rectangle, as this
// test once did, a point the rectangle misses is never drawn, so the test
// could not fail.
func TestCircleCoverCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		center := Point{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: rng.Float64()*360 - 180}
		radius := math.Exp(rng.Float64() * math.Log(3000))
		for precision := 2; precision <= 4; precision++ {
			precision := coverPrecision(radius, precision)
			cover := CircleCover(center, radius, precision)
			if len(cover) == 0 {
				t.Fatalf("empty cover for center=%v r=%.1f precision=%d", center, radius, precision)
			}
			if !sort.StringsAreSorted(cover) {
				t.Fatalf("cover not sorted (Z-order): %v", cover)
			}
			for i := 0; i < 60; i++ {
				p := destination(center, radius*math.Sqrt(rng.Float64()), rng.Float64()*2*math.Pi)
				if HaversineKm(center, p) > radius {
					continue // rounding put it a hair outside
				}
				if !CoverContains(cover, p) {
					t.Fatalf("point %v at %.3f km not covered (center=%v r=%.1f precision=%d)",
						p, HaversineKm(center, p), center, radius, precision)
				}
			}
		}
	}
}

// TestCircleCoverAtTheSeamAndPoles pins the three circles that once lost
// in-radius points: across the antimeridian, around the north pole, and a
// wide circle at 60°N whose flanks reach past d / cos(lat) in longitude.
func TestCircleCoverAtTheSeamAndPoles(t *testing.T) {
	for _, c := range []struct {
		center   Point
		radiusKm float64
		inside   []Point
	}{
		{Point{Lat: 0, Lon: 179.99}, 30, []Point{{Lat: 0, Lon: -179.95}, {Lat: 0.1, Lon: -179.9}}},
		{Point{Lat: 0, Lon: -179.99}, 30, []Point{{Lat: 0, Lon: 179.95}}},
		{Point{Lat: 80, Lon: 0}, 1500, []Point{{Lat: 88, Lon: 180}, {Lat: 82, Lon: 90}, {Lat: 82, Lon: -90}}},
		{Point{Lat: 60, Lon: 0}, 1112, []Point{{Lat: 61.56, Lon: 20.1}, {Lat: 61.56, Lon: 20.3}, {Lat: 61.56, Lon: -20.2}}},
	} {
		for _, p := range c.inside {
			if d := HaversineKm(c.center, p); d > c.radiusKm {
				t.Fatalf("fixture: %v is %.1f km from %v, outside %.0f km", p, d, c.center, c.radiusKm)
			}
			for _, precision := range []int{2, 3, 4} {
				if cover := CircleCover(c.center, c.radiusKm, precision); !CoverContains(cover, p) {
					t.Errorf("center %v r=%.0f km precision %d: %v (%.1f km) not covered",
						c.center, c.radiusKm, precision, p, HaversineKm(c.center, p))
				}
			}
		}
	}
}

func TestCircleCoverTightness(t *testing.T) {
	// Every cover cell must actually touch the circle: min distance <= radius.
	center := Point{Lat: 43.6839128037, Lon: -79.37356590} // paper's Fig. 1 query point
	for _, radius := range []float64{5, 10, 20, 50} {
		for precision := 1; precision <= 4; precision++ {
			for _, h := range CircleCover(center, radius, precision) {
				cell := MustDecodeCell(h)
				if d := MinDistanceKm(center, cell); d > radius {
					t.Errorf("cell %q at min distance %.3f km exceeds radius %.1f", h, d, radius)
				}
			}
		}
	}
}

func TestCircleCoverGrowsWithPrecision(t *testing.T) {
	// Finer cells => more (or equal) cells to cover the same circle, and the
	// covered area shrinks toward the circle (Section VI-B2 discussion).
	center := Point{Lat: 43.6839, Lon: -79.3736}
	radius := 10.0
	prev := 0
	for precision := 1; precision <= 4; precision++ {
		n := len(CircleCover(center, radius, precision))
		if n < prev {
			t.Errorf("precision %d produced %d cells, fewer than coarser %d", precision, n, prev)
		}
		prev = n
	}
	// At 4 characters a 10 km circle needs a modest handful of cells.
	if n := len(CircleCover(center, radius, 4)); n < 2 || n > 64 {
		t.Errorf("unexpected 4-length cover size %d for 10 km", n)
	}
}

func TestCircleCoverZeroRadius(t *testing.T) {
	center := Point{Lat: 10, Lon: 10}
	cover := CircleCover(center, 0, 4)
	if len(cover) != 1 {
		t.Fatalf("zero radius cover = %v, want exactly the center cell", cover)
	}
	if cover[0] != Encode(center, 4) {
		t.Fatalf("zero radius cover %q != center cell %q", cover[0], Encode(center, 4))
	}
}

func TestCircleCoverNegativeRadiusClamped(t *testing.T) {
	center := Point{Lat: 10, Lon: 10}
	if got, want := CircleCover(center, -5, 4), CircleCover(center, 0, 4); len(got) != len(want) {
		t.Fatalf("negative radius not clamped: %v vs %v", got, want)
	}
}

func TestCoverContainsOutside(t *testing.T) {
	center := Point{Lat: 43.68, Lon: -79.37}
	cover := CircleCover(center, 5, 4)
	// A point 500 km away must not be reported as covered.
	far := Point{Lat: 48.5, Lon: -79.37}
	if CoverContains(cover, far) {
		t.Error("far point reported as covered")
	}
	if CoverContains(nil, center) {
		t.Error("empty cover should contain nothing")
	}
}

func TestPrefixCoverRoundTrip(t *testing.T) {
	// Expanding the prefix cover must reproduce the fixed-length cover
	// exactly, and the prefix form is never larger.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		center := Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*340 - 170}
		radius := rng.Float64()*300 + 1 // large radii force sibling merges
		for precision := 2; precision <= 4; precision++ {
			full := CircleCover(center, radius, precision)
			prefixes := PrefixCover(center, radius, precision)
			if len(prefixes) > len(full) {
				t.Fatalf("prefix cover larger than cell cover: %d vs %d", len(prefixes), len(full))
			}
			if !sort.StringsAreSorted(prefixes) {
				t.Fatal("prefix cover not in Z-order")
			}
			expanded := Expand(prefixes, precision)
			if len(expanded) != len(full) {
				t.Fatalf("expand size %d != cover size %d (precision %d, r=%.0f)",
					len(expanded), len(full), precision, radius)
			}
			for i := range full {
				if expanded[i] != full[i] {
					t.Fatalf("expand differs at %d: %s vs %s", i, expanded[i], full[i])
				}
			}
		}
	}
}

func TestPrefixCoverMergesWholeWorld(t *testing.T) {
	// A radius spanning the globe collapses toward single-character (or
	// fewer) prefixes.
	prefixes := PrefixCover(Point{Lat: 0, Lon: 0}, 25000, 3)
	full := CircleCover(Point{Lat: 0, Lon: 0}, 25000, 3)
	if len(prefixes) >= len(full) {
		t.Fatalf("global cover did not compress: %d prefixes vs %d cells", len(prefixes), len(full))
	}
	shortest := len(prefixes[0])
	for _, p := range prefixes {
		if len(p) < shortest {
			shortest = len(p)
		}
	}
	if shortest > 1 {
		t.Errorf("global cover's shortest prefix has length %d, expected 1", shortest)
	}
}

func TestExpandSkipsOverlongPrefixes(t *testing.T) {
	out := Expand([]string{"6gxp"}, 2)
	if len(out) != 0 {
		t.Errorf("overlong prefix expanded to %v", out)
	}
	out = Expand([]string{"6g"}, 2)
	if len(out) != 1 || out[0] != "6g" {
		t.Errorf("exact-length prefix = %v", out)
	}
	out = Expand([]string{"6"}, 2)
	if len(out) != 32 {
		t.Errorf("one-level expansion gave %d cells", len(out))
	}
}

func TestSnapDown(t *testing.T) {
	cases := []struct {
		v, origin, span, want float64
	}{
		{5.4, 0, 1, 5},
		{-5.4, -90, 1, -6},
		{-90, -90, 45, -90},
		{0.1, -90, 45, 0},
	}
	for _, c := range cases {
		if got := snapDown(c.v, c.origin, c.span); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("snapDown(%v,%v,%v) = %v, want %v", c.v, c.origin, c.span, got, c.want)
		}
	}
}
